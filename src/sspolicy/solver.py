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
no-order engine: its free minimum gives the order-up-to level and, plus K,
the linked cost; the reorder point is the largest root of its pinned cost
curve equal to that cost at or below the order-up-to level (deterministic
replacement for the solver's free root choice).

The pinned cost g(x), the no-order optimum with the first level fixed at
x, is bounded below by an envelope R(x) = min_e F_e(x): F_e is the priced
first cycle 1..e at x plus the relaxed cost-to-go V(e + 1) (plus the unit
cost's constant when e = T), a convex piecewise-linear function. The
engine builds these pieces once, on first use. Piece e carries a
certificate limit U_e = y*_{e+1} + D(1..e), where y*_{e+1} is the first
level of the relaxed shortest path from e + 1 and D(1..e) the first
cycle's mean demand (U_T = +inf). If that path keeps its own order chain
and clamps no level to a bound, the pattern "cycle 1..e, then that path"
needs no merge in solve_pattern for x <= U_e and costs exactly F_e(x).
Where the piece attaining R(x) is certified, g(x) = R(x), and cost_at
returns that pattern without a search. The reorder root walks the
certified sublevel set {x <= U_e : F_e(x) < target} leftward from the
order-up-to level to the end x_C of its component, solving each piece's
crossing in closed form. Since g < target on (x_C, S], x_C is the largest
root when g(x_C) meets the target. Otherwise the root falls back to a
bisection below x_C; the engine counts such fallbacks and logs each at
DEBUG level.

Cycle data lives in a CycleTable, one per instance: its (j, t) segments and,
built on first use, every cycle (j, e)'s convex cost, mean demand and free
minimizer. The cycles of one start j come from one array pass: the kinks
and deltas of pieces (j, j..T) are concatenated once, cycle (j, e) is a
ConvexPWL over a read-only prefix of them, and one stable argsort of the
start's kinks gives every cycle's minimizer. The result is bit-equal to
adding the pieces one at a time with ConvexPWL.plus and sorting each sum
(CycleTable._build_start says why). The heuristics solve every suffix
k..T, its free minimum and every root-search step, from the one table
through a SuffixView, which maps the suffix's local periods to the
instance's by the offset k - 1. Sharing is exact: suffix k's (j, t) piece
is the instance's (j + k - 1, t + k - 1) piece, the normal loss of the
same demand slice summed in the same order, so a cycle's cost is the same
function, built by the same operations, whichever suffix reads it. The
unit cost's level terms depend only on whether the cycle opens the suffix
and whether it closes the horizon, so they are keyed by that too; without
a unit cost both keys are one entry. Level bounds differ per suffix and
stay with its engine, which clamps the shared free minimizer to them
exactly as ConvexPWL.minimize does.

The table also owns one no-order engine per suffix, built on first use at
the suffix's default level bounds (those of build_minlp_s with a free
initial level, which build_joint shares). ExactBackend.evaluator and
solve_exact on a model built from a table view read that engine, so the
heuristics that run on one table search each suffix once: the engine
memoizes its free minimum, and its envelope, relaxation rows and cycles
are built once. Every engine cache is a pure function of the suffix and
its bounds, so an answer does not depend on which caller filled it. A
model built from a plain segment dict, or with other bounds (a pinned
initial level widens them), is solved by a private engine.
"""
from __future__ import annotations

import logging
import math
import time
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .model import (MilpModel, default_big_m, level_bounds, period_pieces,
                    verify_assignment)

ROOT_TOLERANCE = 1e-4  # bracket width of the fallback root bisection
ROOT_MATCH = 1e-7      # |g - target| that accepts a reorder root

log = logging.getLogger(__name__)


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class SolveResult:
    objective: float
    assignment: dict
    status: str              # "optimal" | "infeasible"
    node_count: int
    wall_time: float

    def value(self, name: str) -> float:
        return self.assignment[name]


class ConvexPWL:
    """f(x) = slope * x + const + sum_k delta_k * max(x - kink_k, 0),
    with all delta_k >= 0 (convex)."""

    __slots__ = ("slope", "const", "kinks", "deltas")

    def __init__(self, slope=0.0, const=0.0, kinks=None, deltas=None):
        self.slope = float(slope)
        self.const = float(const)
        self.kinks = np.asarray([] if kinks is None else kinks, dtype=float)
        self.deltas = np.asarray([] if deltas is None else deltas, dtype=float)

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
        return ConvexPWL(self.slope + a, self.const + b, self.kinks, self.deltas)

    def shifted(self, delta: float) -> "ConvexPWL":
        """g(x) = f(x - delta)."""
        return ConvexPWL(self.slope, self.const - self.slope * delta,
                         self.kinks + delta, self.deltas)

    def argmin(self, tol: float = 1e-11) -> float:
        """Minimizer over the whole line; flat minima return their midpoint,
        and f returns inf where it never rises, -inf where it never falls.

        Convexity makes the slope sequence nondecreasing, so the minimum
        region is bracketed by the last descending and first ascending
        segment.
        """
        order = np.argsort(self.kinks, kind="stable")
        kinks = self.kinks[order]
        # slopes[i] applies on (kinks[i-1], kinks[i]); slopes[n] after the end
        slopes = self.slope + np.concatenate(([0.0], np.cumsum(self.deltas[order])))
        neg = np.nonzero(slopes < -tol)[0]
        pos = np.nonzero(slopes > tol)[0]
        if pos.size == 0:
            return math.inf
        if neg.size == 0:
            return -math.inf
        last_neg = neg[-1]
        first_pos = pos[0]
        left = kinks[last_neg]
        right = kinks[first_pos - 1]
        return left if first_pos == last_neg + 1 else 0.5 * (left + right)

    def minimize(self, lo: float, hi: float, tol: float = 1e-11):
        """(argmin, min) over [lo, hi]: the free argmin clamped to it."""
        x = min(max(self.argmin(tol), lo), hi)
        return x, self(x)

    def left_crossing(self, level: float, x: float, fx: float) -> float:
        """Left end a of f's sublevel interval {f < level} that holds x,
        given fx = f(x) < level: f < level on (a, x], and a = -inf where f
        stays below level to the left.

        Kink values left of x come from fx by the slopes; the crossing
        itself is solved on its linear piece from an exact evaluation of
        the piece's right end.
        """
        order = np.argsort(self.kinks, kind="stable")
        kinks = self.kinks[order]
        slopes = self.slope + np.concatenate(([0.0], np.cumsum(self.deltas[order])))
        n = int(np.searchsorted(kinks, x, side="right"))
        points = np.append(kinks[:n], x)
        # f at the kinks left of x, from the rise over each piece up to x
        rise = slopes[1:n + 1] * np.diff(points)
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


def _prefix_argmins(slopes, ends, sorted_kinks, inside, rises, rank,
                    tol: float = 1e-11) -> list:
    """ConvexPWL.argmin of the cycles of one start, a row each: row i has
    slope slopes[i] and the ends[i] kinks where `inside` holds among the
    start's stably sorted kinks; rank counts them and rises sums their
    deltas. Its slopes never fall, so counting the descending and the
    ascending segments finds the last descending and first ascending one."""
    after = slopes[:, None] + rises  # the slope right of each kink
    neg = (slopes < -tol) + ((after < -tol) & inside).sum(axis=1)
    pos = (slopes > tol) + ((after > tol) & inside).sum(axis=1)
    last_neg, first_pos = neg - 1, ends + 1 - pos
    top = len(sorted_kinks) - 1
    left = sorted_kinks[np.minimum((rank <= last_neg[:, None]).sum(axis=1), top)]
    right = sorted_kinks[np.minimum((rank < first_pos[:, None]).sum(axis=1), top)]
    xs = np.where(first_pos == last_neg + 1, left, 0.5 * (left + right))
    return [math.inf if p == 0 else -math.inf if n == 0 else x
            for n, p, x in zip(neg, pos, xs)]


@lru_cache(maxsize=64)
def _steps(slopes: tuple) -> np.ndarray:
    """np.diff of a piece's slopes; the pieces of one partition share it."""
    out = np.diff(slopes)
    out.flags.writeable = False
    return out


class CycleTable:
    """Segment data and cycle costs of one instance, keyed by the instance's
    own (1-based) periods; see the module docstring."""

    def __init__(self, instance, segments: Mapping, partition=None):
        self.instance = instance
        self.segments = segments  # (j, t) -> PiecewiseLoss
        self.partition = partition  # (cells, strategy) the segments used
        self._cycles: dict = {}
        self._priced: dict = {}
        self._pieces: list | None = None
        self._engines: dict = {}  # suffix k -> its no-order engine

    def cycle(self, j: int, e: int) -> tuple:
        """(cost, mean demand, largest and smallest demand shift) of cycle
        j..e, its cost a function of the start-of-cycle level y: a
        ConvexPWL over read-only prefixes of start j's kink arrays."""
        if (j, e) not in self._cycles:
            self._build_start(j)
        return self._cycles[(j, e)]

    def priced(self, j: int, e: int, first: bool) -> tuple:
        """(cost, argmin, min) of cycle j..e with the unit ordering cost,
        which telescopes into the levels of a suffix's first cycle (`first`)
        and of the horizon's last; argmin is ConvexPWL.argmin's, and min is
        the cost there (nan where argmin is infinite). With no unit cost
        both `first` values are one entry."""
        if (j, e, first) not in self._priced:
            self._build_start(j)
        return self._priced[(j, e, first)]

    def _build_start(self, j: int) -> None:
        """Every cycle (j, e) and its priced variants, in one array pass.

        Cycle (j, e) sums pieces (j, j..e): its kinks and deltas are a
        prefix of the pieces' concatenation, and its slope and constant
        are running sums from 0.0, so the result is bit-equal to adding the
        pieces one at a time with ConvexPWL.plus. One stable argsort of
        the start's kinks, filtered to each prefix, is each cycle's own
        stable order; a cumulative sum of the sorted deltas with the
        other cycles' deltas masked to 0.0 gives each cycle's slopes
        bit-equal, as adding 0.0 leaves a partial sum unchanged.
        """
        T = self.instance.horizon
        costs = self.instance.costs
        b, c = costs.penalty, costs.unit
        hb = costs.holding + b
        pieces = [self.segments[(j, t)] for t in range(j, T + 1)]
        sizes = [len(pw.breakpoints) for pw in pieces]
        ends = np.cumsum(sizes)
        kinks = np.concatenate([pw.breakpoints for pw in pieces])
        deltas = np.concatenate([_steps(pw.slopes) for pw in pieces]) * hb
        kinks.flags.writeable = deltas.flags.writeable = False
        # b * B_t = b * (H_t - I_t) = b * (H_t - y + shift)
        slopes = list(accumulate([0.0 - b] * len(pieces), initial=0.0))[1:]
        consts = list(accumulate([hb * pw.error_bound + b * pw.mean
                                  for pw in pieces], initial=0.0))[1:]
        shifts = [pw.mean for pw in pieces]
        cycles = [ConvexPWL(slope, const, kinks[:n], deltas[:n])
                  for slope, const, n in zip(slopes, consts, ends)]
        for e, f, top, low in zip(range(j, T + 1), cycles,
                                  accumulate(shifts, max), accumulate(shifts, min)):
            self._cycles[(j, e)] = (f, shifts[e - j], top, low)

        order = np.argsort(kinks, kind="stable")
        # row i: which sorted kinks cycle (j, j + i) holds, its deltas' running
        # sum with the others masked to 0.0, and its count of kinks so far
        inside = np.repeat(np.arange(len(pieces)), sizes)[order] \
            <= np.arange(len(pieces))[:, None]
        rises = np.cumsum(np.where(inside, deltas[order], 0.0), axis=1)
        rank = np.cumsum(inside, axis=1)
        sorted_kinks = kinks[order]

        def priced(funcs: list) -> list:
            xs = _prefix_argmins(np.array([f.slope for f in funcs]), ends,
                                 sorted_kinks, inside, rises, rank)
            return [(f, x, f(x) if math.isfinite(x) else math.nan)
                    for f, x in zip(funcs, xs)]

        if not c:
            for e, hit in zip(range(j, T + 1), priced(cycles)):
                self._priced[(j, e, True)] = self._priced[(j, e, False)] = hit
            return
        # -c y for the suffix's first cycle, +c y for the horizon's last
        firsts = [f.plus_affine(-c, 0.0) for f in cycles]
        firsts[-1] = firsts[-1].plus_affine(c, 0.0)
        later = cycles[:-1] + [cycles[-1].plus_affine(c, 0.0)]
        for first, funcs in ((True, firsts), (False, later)):
            for e, hit in zip(range(j, T + 1), priced(funcs)):
                self._priced[(j, e, first)] = hit

    def period_pieces(self) -> list:
        """model.period_pieces of the whole instance, built on first use;
        its arrays are read-only, and suffix views slice them."""
        if self._pieces is None:
            self._pieces = period_pieces(self.instance, self.segments)
            for arrays in self._pieces:
                for a in arrays:
                    a.flags.writeable = False
        return self._pieces

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


class SuffixView(Mapping):
    """Periods k..T of a CycleTable in the suffix's local periods 1..T-k+1.

    A Mapping of local (j, t) to segment data, so the model builders take it
    in place of a segment dict; `cycle` reads the shared cycle costs.
    """

    def __init__(self, table: CycleTable, k: int):
        self.table = table
        self.offset = k - 1
        self.instance = table.instance if k == 1 else table.instance.suffix(k)
        self.horizon = self.instance.horizon

    def __getitem__(self, key):
        j, t = key
        if not 1 <= j <= t <= self.horizon:
            raise KeyError(key)
        return self.table.segments[(j + self.offset, t + self.offset)]

    def __iter__(self):
        return ((j, t) for t in range(1, self.horizon + 1)
                for j in range(1, t + 1))

    def __len__(self):
        return self.horizon * (self.horizon + 1) // 2

    def period_pieces(self) -> list:
        """model.period_pieces of the suffix: each of its periods' arrays
        in the table, cut to the starts k..t."""
        o = self.offset
        return [tuple(a[o:] for a in arrays)
                for arrays in self.table.period_pieces()[o:]]

    def cycle(self, j: int, e: int) -> tuple:
        return self.table.cycle(j + self.offset, e + self.offset)

    def priced(self, j: int, e: int) -> tuple:
        return self.table.priced(j + self.offset, e + self.offset, j == 1)


@dataclass
class _Cycle:
    start: int           # local period j (1-based); orders unless j == 1
    end: int             # local period e
    cost: ConvexPWL      # priced cost of the start-of-cycle level y
    argmin: float        # cost.argmin() and the cost there
    minimum: float
    mean_demand: float   # cumulative mean over the cycle
    y_lo: float
    y_hi: float


@dataclass
class _Piece:
    """Piece e of the pinned-first-cycle envelope: the pattern that closes
    the pinned first cycle at e and completes the horizon on the relaxed
    shortest path from e + 1."""
    cost: ConvexPWL      # priced cycle 1..e of the pinned level
    const: float         # V(e + 1), plus the unit-cost term when e = T
    lo: float            # pin domain, with solve_pattern's 1e-9 slack
    hi: float
    limit: float         # certificate limit U_e; -inf where there is none
    deltas: tuple        # the pattern
    levels: list         # the relaxed tail's levels
    cycles: list         # the pattern's cycles

    def value(self, x: float) -> float:
        return self.cost(x) + self.const if self.lo <= x <= self.hi else math.inf


class _SubmodelEngine:
    """Order-pattern search for the no-order submodel of a suffix.

    `view` gives the suffix's instance and cycles, `bounds` the (lower,
    upper) bound of every inventory level, the initial one included
    (model.level_bounds). A fixed initial level is passed to `enumerate`.
    `free_minimum` and `cost_at` are its optimum with a free and a fixed
    initial level, `reorder_root` the largest level at which the latter
    reaches a target; `nodes` counts the patterns they solved, `certified`
    the `cost_at` answers read from the envelope and `fallbacks` the roots
    that needed `_largest_root`. The free minimum is searched once and
    memoized, its levels read-only.
    """

    def __init__(self, view: SuffixView, bounds: tuple):
        self.view = view
        inst = view.instance
        self.T = inst.horizon
        self.K, self.c = inst.costs.fixed, inst.costs.unit
        self.total_mean = sum(inst.means)
        self.inv_lo, self.inv_hi = bounds
        # lowest pinnable no-order starting level: period 1's closing
        # inventory must stay within bounds for at least one pattern
        self.pin_lower = self.inv_lo + inst.means[0]
        self.nodes = 0
        self.certified = 0
        self.fallbacks = 0
        self._cycle_cache: dict = {}
        self._relaxed: dict = {}  # cycle start -> (arc, reach), unpinned
        self._tails: dict | None = None   # relaxed paths, built on first use
        self._pieces: list | None = None  # the envelope, built on first use
        self._free: tuple | None = None   # (free optimum or None,), memoized

    def cycle(self, j: int, e: int) -> _Cycle:
        key = (j, e)
        hit = self._cycle_cache.get(key)
        if hit is not None:
            return hit
        _, mean_d, top_shift, low_shift = self.view.cycle(j, e)
        cost, argmin, minimum = self.view.priced(j, e)
        # inventory bounds: every I_t = y - shift within [inv_lo, inv_hi]
        cyc = _Cycle(start=j, end=e, cost=cost, argmin=argmin,
                     minimum=minimum, mean_demand=mean_d,
                     y_lo=self.inv_lo + top_shift, y_hi=self.inv_hi + low_shift)
        self._cycle_cache[key] = cyc
        return cyc

    def pattern_cycles(self, deltas: tuple) -> list:
        """Cycles of a pattern, deltas[t-1] being delta_t: the first opens
        at period 1 without an order, every later one at an order."""
        starts = [1] + [t for t in range(2, self.T + 1) if deltas[t - 1]]
        ends = [j - 1 for j in starts[1:]] + [self.T]
        return [self.cycle(j, e) for j, e in zip(starts, ends)]

    def solve_pattern(self, deltas: tuple, pinned_i0: float | None):
        """(cost, y-levels) for one order pattern, or None if infeasible.

        Pool-adjacent pass over the chain y_c >= y_{c-1} - D_{c-1}; a pinned
        first level (fixed initial inventory) propagates as a hard lower
        bound through any merge containing it.
        """
        cycles = self.pattern_cycles(deltas)
        m = len(cycles)
        offsets = np.zeros(m)
        for i in range(1, m):
            offsets[i] = offsets[i - 1] + cycles[i - 1].mean_demand
        # in z = y + cumulative demand
        funcs = [cyc.cost.shifted(offsets[i])
                 for i, cyc in enumerate(cycles)]
        z_los = np.array([c.y_lo + offsets[i] for i, c in enumerate(cycles)])
        z_his = np.array([c.y_hi + offsets[i] for i, c in enumerate(cycles)])
        # the first level doubles as the initial-inventory variable
        z_los[0] = max(z_los[0], self.inv_lo)
        z_his[0] = min(z_his[0], self.inv_hi)
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
        cost += self.K * (m - 1)
        if self.c:
            cost += self.c * (self.total_mean - cycles[-1].mean_demand)
        return float(cost), y_opt, cycles

    def _arc(self, j: int, e: int, pin: float | None) -> float:
        """Relaxed cost of cycle j..e alone: K if it orders (j > 1), plus
        its priced cost at `pin` for a pinned first cycle, otherwise
        minimized over its level bounds widened by solve_pattern's 1e-9
        slack, plus the unit cost's constant if it is the last cycle.
        math.inf where solve_pattern would find no level for it."""
        cyc = self.cycle(j, e)
        lo, hi = cyc.y_lo, cyc.y_hi
        if j == 1:
            lo, hi = max(lo, self.inv_lo), min(hi, self.inv_hi)
        if pin is not None:
            if not (cyc.y_lo - 1e-9 <= pin <= cyc.y_hi + 1e-9):
                return math.inf
            value = cyc.cost(pin)
        elif lo > hi + 1e-9:
            return math.inf
        else:
            # ConvexPWL.minimize(lo - 1e-9, hi + 1e-9) from the shared argmin
            x = min(max(cyc.argmin, lo - 1e-9), hi + 1e-9)
            value = cyc.minimum if x == cyc.argmin else cyc.cost(x)
        if j > 1:
            value += self.K
        if e == self.T and self.c:
            value += self.c * (self.total_mean - cyc.mean_demand)
        return value

    def _relaxation(self, j: int, pin: float | None = None):
        """(arc, reach) for a cycle opened at j: arc[e] is the relaxed cost
        of cycle j..e, reach[t] the cheapest relaxed cost of closing it at
        some e >= t - 1 and completing the horizon from e + 1 (so
        reach[j + 1] is the relaxed cost-to-go V(j)). Only a pinned first
        cycle depends on the level; every other row is cached."""
        hit = self._relaxed.get(j) if pin is None else None
        if hit is not None:
            return hit
        T = self.T
        arc = [math.inf] * (T + 1)
        reach = [math.inf] * (T + 2)
        best = math.inf
        for e in range(T, j - 1, -1):
            arc[e] = self._arc(j, e, pin)
            best = min(best, arc[e] + self._cost_to_go(e + 1))
            reach[e + 1] = best
        if pin is None:
            self._relaxed[j] = (arc, reach)
        return arc, reach

    def _cost_to_go(self, i: int) -> float:
        """Relaxed cost of periods i..T with a cycle starting at i."""
        return 0.0 if i > self.T else self._relaxation(i)[1][i + 1]

    def enumerate(self, pinned_i0: float | None):
        """Global optimum over all order patterns, by the branch and bound
        of the module docstring. Ties keep the lexicographically smallest
        pattern. Returns ((cost, deltas, y_levels, cycles) | None, nodes),
        nodes counting the distinct patterns passed to solve_pattern.
        """
        T = self.T
        first_row = self._relaxation(1, pinned_i0)
        if first_row[1][2] == math.inf:
            return None, 0  # every pattern holds a cycle with no feasible level

        def row(j):
            return first_row if j == 1 else self._relaxation(j)

        # the relaxed shortest path's pattern seeds the incumbent: the first
        # cycle's end from the (pinned) first row, then the cached tail
        arc = first_row[0]
        e = min(range(1, T + 1), key=lambda e: arc[e] + self._cost_to_go(e + 1))
        deltas = [0] * T
        for cyc in self._relaxed_tails()[e + 1][1]:
            deltas[cyc.start - 1] = 1
        seed_pattern = tuple(deltas)
        seed = self.solve_pattern(seed_pattern, pinned_i0)
        seed_cost = math.inf if seed is None else seed[0]
        nodes = 1
        best = None
        deltas = [0] * T

        def visit(t: int, j: int, closed: float) -> None:
            # periods j..t-1 form the open cycle; delta_t is decided next
            nonlocal best, nodes
            arc, reach = row(j)
            bound = closed + reach[t]
            ref = seed_cost if best is None else min(seed_cost, best[0])
            if bound == math.inf or bound > ref + 1e-6 * max(1.0, abs(ref)):
                return
            if t > T:
                pattern = tuple(deltas)
                if pattern == seed_pattern:
                    solved = seed
                else:
                    nodes += 1
                    solved = self.solve_pattern(pattern, pinned_i0)
                if solved is not None and (best is None or solved[0] < best[0] - 1e-12):
                    cost, y_opt, cycles = solved
                    best = (cost, pattern, y_opt, cycles)
                return
            visit(t + 1, j, closed)
            deltas[t - 1] = 1
            visit(t + 1, t, closed + arc[t - 1])
            deltas[t - 1] = 0

        visit(2, 1, 0.0)
        return best, nodes

    def free_optimum(self):
        """The free minimum (cost, deltas, y_levels, cycles), or None where
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
        envelope where its minimizing piece is certified, else searched."""
        best = self._certified_at(x)
        if best is not None:
            self.certified += 1
            return best
        best, nodes = self.enumerate(pinned_i0=x)
        self.nodes += nodes
        if best is None:
            raise SolverError(f"no feasible pattern at initial level {x}")
        return best

    def envelope(self) -> list:
        """The pieces e = 1..T of R(x) = min_e F_e(x), each the priced
        cycle 1..e at x plus the relaxed cost-to-go V(e + 1); see the
        module docstring. Pieces with no finite cost-to-go are left out."""
        if self._pieces is None:
            pieces = []
            tails = self._relaxed_tails()
            for e in range(1, self.T + 1):
                cyc = self.cycle(1, e)
                if e == self.T:
                    const = self.c * (self.total_mean - cyc.mean_demand) if self.c else 0.0
                    limit, levels, cycles = math.inf, [], []
                else:
                    const = self._cost_to_go(e + 1)
                    if const == math.inf:
                        continue
                    levels, cycles, chained = tails[e + 1]
                    limit = levels[0] + cyc.mean_demand if chained else -math.inf
                deltas = [0] * self.T
                for tail in cycles:
                    deltas[tail.start - 1] = 1
                pieces.append(_Piece(
                    cyc.cost, const, cyc.y_lo - 1e-9, cyc.y_hi + 1e-9, limit,
                    tuple(deltas), levels, [cyc] + cycles))
            self._pieces = pieces  # only whole: the engine may be shared
        return self._pieces

    def _relaxed_tails(self) -> dict:
        """Cycle start j >= 2 -> (levels, cycles, chained) of the relaxed
        shortest path from j, built on first use. `chained` holds where
        every level is its cycle's own minimizer within the level bounds
        and the levels keep the order chain y_next >= y - D, so
        solve_pattern gives the path's pattern exactly these levels and the
        relaxed cost."""
        if self._tails is not None:
            return self._tails
        T = self.T
        tails = {T + 1: ([], [], True)}
        for j in range(T, 1, -1):
            arc = self._relaxation(j)[0]
            e = min(range(j, T + 1), key=lambda e: arc[e] + self._cost_to_go(e + 1))
            cyc = self.cycle(j, e)
            levels, cycles, chained = tails[e + 1]
            y = cyc.argmin
            chained = (chained and cyc.y_lo <= y <= cyc.y_hi
                       and (not levels or levels[0] >= y - cyc.mean_demand))
            tails[j] = ([y] + levels, [cyc] + cycles, chained)
        self._tails = tails
        return tails

    def _certified_at(self, x: float):
        """cost_at(x) from the envelope, or None where no certified piece
        attains R(x). A piece is certified at x <= U_e: its pattern then
        costs F_e(x) in solve_pattern, so g(x) <= F_e(x) = R(x) <= g(x)."""
        lowest = best = math.inf
        chosen = None
        for piece in self.envelope():
            value = piece.value(x)
            lowest = min(lowest, value)
            if x <= piece.limit and value < best:
                best, chosen = value, piece
        if chosen is None or best > lowest:
            return None
        levels = np.array([x] + chosen.levels)
        return float(best), chosen.deltas, levels, chosen.cycles

    def reorder_root(self, target: float, hi: float):
        """(x, cost_at(x)) for the largest x <= hi with cost_at(x) = target,
        the pinned cost exceeding target far to the left.

        Walks the certified sublevel set {x <= U_e : F_e(x) < target} from
        hi leftward to the end x_C of its component; g < target on
        (x_C, hi], so x_C is the root if g(x_C) = target within ROOT_MATCH.
        Otherwise _largest_root searches below x_C.
        """
        best = self.cost_at(hi)
        if abs(best[0] - target) <= 1e-9:
            return hi, best  # K = 0: the order-up-to level is the root
        x = hi
        moved = True
        while moved:
            moved = False
            for piece in self.envelope():
                value = piece.value(x)
                if x <= piece.limit and value < target:
                    left = max(piece.cost.left_crossing(
                        target - piece.const, x, value - piece.const), piece.lo)
                    if left < x:
                        x, moved = left, True
        if x < hi:
            best = self.cost_at(x)
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

    def assignment_for(self, lab: str, deltas, y_opt, cycles) -> dict:
        """Values of submodel `lab`'s variables for a solved pattern."""
        out = {}
        for t in range(1, self.T + 1):
            out[f"delta_{lab}_{t}"] = float(deltas[t - 1])
            for j in range(1, t + 1):
                out[f"P_{lab}_{j}_{t}"] = 0.0
        i0 = None
        for i, cyc in enumerate(cycles):
            y = float(y_opt[i])
            if i == 0:
                i0 = y  # the first level doubles as the initial one
            for t in range(cyc.start, cyc.end + 1):
                pw = self.view[(cyc.start, t)]
                out[f"P_{lab}_{cyc.start}_{t}"] = 1.0
                inv = y - pw.mean
                h_val = float(pw.upper(y))
                out[f"I_{lab}_{t}"] = inv
                out[f"H_{lab}_{t}"] = h_val
                out[f"B_{lab}_{t}"] = h_val - inv
        out[f"I0_{lab}"] = float(i0)
        return out


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
    """The table's engine of the view a model was built from, where the
    model has the view's default bounds; else a private engine."""
    bounds = level_bounds(model.instance, model.big_m)
    view = model.segments
    if not isinstance(view, SuffixView):
        view = CycleTable(model.instance, view).suffix(1)
    elif bounds == default_bounds(view.instance):
        return view.table.engine(view.offset + 1)
    return _SubmodelEngine(view, bounds)


def solve_exact(model: MilpModel) -> SolveResult:
    """Global optimum of the linearized model; see the module docstring.
    The node count is the patterns this solve added to its engine, so a
    free minimum another caller already searched counts none."""
    start = time.perf_counter()
    if model.kind not in ("s", "S", "joint"):
        raise SolverError(f"unknown model kind {model.kind!r}")
    engine = _engine_for(model)
    if model.kind == "joint":
        return _solve_joint(model, engine, start)
    label = model.kind
    pinned = None
    i0 = model.index[f"I0_{label}"]
    if label == "s" and model.lb[i0] == model.ub[i0]:
        pinned = float(model.lb[i0])
    if pinned is None:
        before = engine.nodes
        best = engine.free_optimum()
        nodes = engine.nodes - before
    else:
        best, nodes = engine.enumerate(pinned_i0=pinned)
    if best is None:
        return SolveResult(math.nan, {}, "infeasible", nodes,
                           time.perf_counter() - start)
    if label == "S":
        best = _forced(engine, best)
    cost, deltas, y_opt, cycles = best
    assignment = engine.assignment_for(label, deltas, y_opt, cycles)
    if pinned is not None:
        assignment["I0_s"] = pinned
    obj = model.objective_value(assignment)
    _self_check(model, assignment, obj, cost)
    return SolveResult(obj, assignment, "optimal", nodes,
                       time.perf_counter() - start)


def _forced(engine: _SubmodelEngine, free: tuple) -> tuple:
    """The forced-order optimum from the no-order free one: the period-1
    order adds K, and the levels stay."""
    cost, deltas, y_opt, cycles = free
    return cost + engine.K, (1,) + deltas[1:], y_opt, cycles


def _solve_joint(model: MilpModel, engine: _SubmodelEngine,
                 start: float) -> SolveResult:
    before = engine.nodes
    best = engine.free_optimum()
    if best is None:
        return SolveResult(math.nan, {}, "infeasible", engine.nodes - before,
                           time.perf_counter() - start)
    cost_S, deltas_S, y_S, cycles_S = _forced(engine, best)
    s_up = float(y_S[0])  # order-up-to level: the pinned I0_S
    root, (cost_s, deltas_s, y_s, cycles_s) = engine.reorder_root(cost_S, s_up)
    nodes = engine.nodes - before
    assignment = engine.assignment_for("S", deltas_S, y_S, cycles_S)
    assignment.update(engine.assignment_for("s", deltas_s, y_s, cycles_s))
    assignment["I0_s"] = float(root)
    assignment["C_S"] = float(cost_S)
    assignment["G_s"] = float(cost_s)
    obj = model.objective_value(assignment)
    _self_check(model, assignment, obj, None)
    return SolveResult(obj, assignment, "optimal", nodes,
                       time.perf_counter() - start)


def _self_check(model: MilpModel, assignment: dict, obj: float,
                engine_cost: float | None) -> None:
    bad = verify_assignment(model, assignment, tol=1e-6)
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
    obj = model.objective_value(assignment)
    return SolveResult(obj, assignment, "optimal", 0,
                       time.perf_counter() - start)


class ExactBackend:
    """Default backend: the in-repo branch-and-bound solver.

    Order patterns are searched under the separable cycle relaxation
    described in the module docstring; its bound is a true lower bound on
    every pattern below it and prunes only past a margin above the
    incumbent, so the optimum, its cost and its levels are those of a full
    enumeration of the 2^(T-1) patterns.
    """

    def solve(self, model: MilpModel) -> SolveResult:
        return solve_exact(model)

    def evaluator(self, view: SuffixView) -> _SubmodelEngine:
        """The no-first-order model of a suffix, as build_minlp_s would
        build it with a free initial level: its table's shared engine."""
        return view.table.engine(view.offset + 1)
