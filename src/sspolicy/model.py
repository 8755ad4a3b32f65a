"""Canonical MILP descriptions of the lot-sizing models.

Three related models are built over a T-period instance:

  * the no-first-order model ("s"): the first-period order is forbidden, so
    the optimal objective as a function of the initial inventory traces the
    cost-to-go curve whose root search yields reorder points;
  * the forced-first-order model ("S"): the first-period order is forced and
    the initial level is free, so the optimizer returns the order-up-to
    level; its optimum is the free "s" optimum plus K at the same levels,
    which is how the solver obtains it;
  * the joint model: both submodels plus an equality linking their cost
    expressions and the ordering I0_s <= I0_S, which pins the reorder point
    and order-up-to level simultaneously.

Loss terms appear only through piecewise segment data, one Segments
record per instance (build_segments): one row per period/cycle pair
(j, t), the convolved demand's breakpoints, mean and error bound, and the
model-row arrays every builder slices; each piecewise rule points at its
pair's row. The expected overage H_t equals the upper-shifted piecewise
function of the pre-demand level, and the expected backorder satisfies
B_t = H_t - I_t identically.

Cycle bookkeeping uses binaries delta_t (an order is placed in t) and P_jt
(the cycle covering t started in j). Period 1 always starts a cycle: the
initial level is deterministic, so the j = 1 linkage row uses the constant
1 rather than delta_1 (with a forced first order they coincide; without
one, the constant closes a loophole that would let the model pretend a
later, lower-variance cycle start).

Storage: a MilpModel is one table addressed by column index. Columns have
names, bounds and a binary mask; the objective is a sparse vector plus a
constant; every linear, cut and indicator row sits in one CSR matrix
(RowTable, CsrMatrix) and the piecewise rules in parallel arrays
(PiecewiseRules), each rule's numbers read from the model's Segments at
its row.
Terms keep their emission order, which is the LP file's term order. Each
submodel's column layout (Columns: I0, and per period I_t, H_t, B_t,
delta_t and its first piecewise rule, whose selectors are the P_jt) is
recorded at emission, so a solver writes its answer as a column vector
without names. verify_assignment checks an assignment, a dict or such a
vector, against the table with array expressions, all rows by one
matrix-vector product; the sense codes and indicator rows
(RowTable.checks) and the free binaries (MilpModel.free_binaries) are
fields, derived once where the emitter freezes a model.

Demand totals (big-M, level bounds, the unit-cost constants) are summed
left to right from 0.0 by domain.running_sums, as the convolved demands
are, so no bit depends on the interpreter's sum().

The joint model's structure depends only on the horizon and the segment
count: the unit cost c is a number at every c, its terms emitted like K's,
h's and b's (with weight 0 at c = 0). Suffix k of an instance is again
an instance of T - k + 1 periods. _add_joint, the emitter below, is the
model's only definition: each step that writes an instance number records
its slot (a right-hand side, matrix entry or objective term) and source,
an entry of the values _stack_values lays out for the instance. A
JointStack emits the joint models of suffixes 1..count of a key once, as
the diagonal blocks of one model, and composes each recorded source with
its block's suffix, and each rule points at the instance's row of its
composed pair; one fill then gathers the right-hand sides, the matrix data
and the objective of every block, each from one vector of the instance's
values, and scatters each block's level bounds. build_joint is the
one-block stack; mp's per-instance check (solver.check_joint_answers)
fills the stack of all T suffixes. Filled
models share the structural arrays (names, index, binary mask, row names,
senses, kinds, conditions, CSR indices and indptr, the piecewise rules,
column layouts) read-only, and the checks derived from them.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .domain import (CostParameters, Instance, NormalDemand, running_sums,
                     validate)
# piecewise_loss stays importable here: bench/tracing.py patches this name
from .loss import cached_partition, piecewise_loss  # noqa: F401

ROW, CUT, INDICATOR = 0, 1, 2  # row kinds, in the order the LP file lists them
# sections of an instance's values, in _stack_values' order; an emitter
# records each instance number's source as (section, index) in its block
(_COEF, _NEG_COEF, _MEAN, _NEG_MEAN, _UNIT_TOTAL,
 _NEG_SLOPE, _ONE_LESS, _NEG_CONST) = range(8)


@dataclass(frozen=True)
class RowChecks:
    """A row's violation is sign * (lhs - rhs), or |lhs - rhs| for an
    equality (sign 0); the indicator rows and their condition columns."""
    sign: np.ndarray
    equality: np.ndarray
    indicators: np.ndarray
    conditions: np.ndarray

    @staticmethod
    def of(sense: np.ndarray, kind: np.ndarray, condition: np.ndarray) -> "RowChecks":
        """The checks of rows with these senses, kinds and conditions, as
        read-only arrays."""
        sign = np.select([sense == "<=", sense == ">="], [1.0, -1.0], 0.0)
        indicators = np.flatnonzero(kind == INDICATOR)
        out = RowChecks(sign, sign == 0.0, indicators, condition[indicators])
        for a in vars(out).values():
            a.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A matrix in compressed sparse rows: row r's entries are
    data[indptr[r]:indptr[r + 1]], in the columns of the same slice of
    indices; `entry_rows` holds each entry's row. `matrix @ x` sums each
    row's products in entry order from 0.0, as a CSR matrix-vector product
    does."""
    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple
    entry_rows: np.ndarray

    @staticmethod
    def of(data, indices, indptr, shape: tuple) -> "CsrMatrix":
        indptr = np.asarray(indptr)
        return CsrMatrix(np.asarray(data), np.asarray(indices),
                         indptr, shape, np.repeat(np.arange(shape[0]),
                                                  np.diff(indptr)))

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.entry_rows, weights=self.data * x[self.indices],
                           minlength=self.shape[0])


@dataclass
class RowTable:
    """Every row of a model. An indicator row holds only while the binary in
    column `condition` is 0 (no order placed); `condition` is -1 elsewhere.
    `checks`, what verify_assignment reads of the rows' structure, is
    derived once where a model is frozen, and copies that keep the
    structure carry it."""
    matrix: CsrMatrix
    names: np.ndarray
    sense: np.ndarray        # "<=", ">=" or "=="
    rhs: np.ndarray
    kind: np.ndarray         # ROW, CUT or INDICATOR
    condition: np.ndarray
    checks: RowChecks

    def __len__(self) -> int:
        return len(self.names)


@dataclass
class PiecewiseRules:
    """selector = 1 implies holding = upper(inventory + shift) and
    backorder = holding - inventory, one rule per cycle pair (start, period)
    of each submodel. `piece` is the rule's row of the model's Segments,
    which holds its numbers: shift is the row's mean, and upper the maximum
    of the row's lines slopes * y + lines (error bound included). equality
    marks rules whose holding and backorder carry no objective weight, so
    LP export must encode the equality explicitly instead of relying on
    minimization."""
    selector: np.ndarray
    inventory: np.ndarray
    holding: np.ndarray
    backorder: np.ndarray
    piece: np.ndarray
    start: np.ndarray
    period: np.ndarray
    label: np.ndarray
    equality: np.ndarray

    def __len__(self) -> int:
        return len(self.selector)


@dataclass(frozen=True)
class Columns:
    """Where one submodel's variables sit, recorded at emission: the initial
    level I0 and, at entry t - 1, period t's level I_t, holding H_t,
    backorder B_t, order binary delta_t and the piecewise rule of cycle
    pair (1, t). The rule of pair (j, t) is rules[t - 1] + j - 1, and its
    selector column is P_jt."""
    initial: int
    inventory: np.ndarray
    holding: np.ndarray
    backorder: np.ndarray
    order: np.ndarray
    rules: np.ndarray


@dataclass
class MilpModel:
    kind: str                  # "s" | "S" | "joint"
    instance: Instance
    big_m: float
    segments: Segments         # the instance's segment data
    names: Sequence            # column names, in insertion order
    index: Mapping             # column name -> column
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray
    objective: tuple           # (columns, coefficients)
    objective_constant: float
    rows: RowTable
    piecewise: PiecewiseRules
    columns: Mapping           # submodel label -> its Columns
    free_binaries: np.ndarray  # binaries the bounds leave free, read-only

    def vector(self, assignment) -> np.ndarray:
        """The assignment's values in column order; a vector is returned
        as it is."""
        if isinstance(assignment, np.ndarray):
            return assignment
        return np.fromiter(map(assignment.__getitem__, self.names), float,
                           len(self.names))

    def objective_value(self, assignment) -> float:
        """The objective at a name -> value dict or a column vector."""
        cols, coefs = self.objective
        return self.objective_constant + float(coefs @ self.vector(assignment)[cols])


class _Emitter:
    """A model under construction, by column index; `model` freezes it."""

    def __init__(self):
        self.names, self.lb, self.ub, self.binary = [], [], [], []
        self.index = {}
        self.objective = []      # cost terms: see _add_submodel
        self.constant = 0.0
        self.cols, self.vals, self.indptr = [], [], [0]
        self.meta = []           # (name, sense, rhs, kind, condition) per row
        self.rules = defaultdict(list)  # PiecewiseRules field -> values
        self.columns = {}        # submodel label -> Columns
        self.slots = {"rhs": [], "data": []}  # see take
        self.block = 0           # the suffix offset of the block being emitted

    def var(self, name, lb=-math.inf, ub=math.inf, binary=False) -> int:
        col = self.index[name] = len(self.names)
        self.names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.binary.append(binary)
        return col

    def fix(self, col, value):
        self.lb[col] = self.ub[col] = value

    def add_row(self, name, cols, vals, sense, rhs, kind=ROW, condition=-1,
                source=None):
        """source: the (section, index) of an instance number rhs."""
        if source is not None:
            self.take("rhs", len(self.meta), *source)
        self.cols += cols
        self.vals += vals
        self.indptr.append(len(self.cols))
        self.meta.append((name, sense, rhs, kind, condition))

    def take(self, target, slots, section, indices):
        """Record that entries `slots` of the right-hand sides or the matrix
        data (`target`) hold the instance values at `indices` of a section,
        in the current block."""
        self.slots[target].append((slots, section, indices, self.block))

    def add_rules(self, **fields):
        """Piecewise rules, one per entry of every field."""
        for key, values in fields.items():
            self.rules[key] += list(values)

    def model(self, kind, instance, big_m, segments) -> MilpModel:
        matrix = CsrMatrix.of(self.vals, self.cols, self.indptr,
                              (len(self.meta), len(self.names)))
        names, sense, rhs, kinds, conditions = map(np.array, zip(*self.meta))
        rows = RowTable(matrix, names, sense, rhs, kinds, conditions,
                        RowChecks.of(sense, kinds, conditions))
        rules = PiecewiseRules(**{key: np.array(values)
                                  for key, values in self.rules.items()})
        cols, coefs, _ = zip(*self.objective)
        lb, ub = np.array(self.lb, dtype=float), np.array(self.ub, dtype=float)
        binary = np.array(self.binary)
        free = np.flatnonzero(binary & (lb != ub))
        free.flags.writeable = False
        return MilpModel(
            kind=kind, instance=instance, big_m=big_m, segments=segments,
            names=self.names, index=self.index, lb=lb, ub=ub, binary=binary,
            objective=(np.array(cols), np.array(coefs, dtype=float)),
            objective_constant=self.constant, rows=rows, piecewise=rules,
            columns=MappingProxyType(self.columns), free_binaries=free)


def convolved_demand(instance: Instance) -> tuple:
    """(means, std devs) of demand convolved over periods j..t, at row
    j - 1 and column t - 1 of two T x T arrays (zero below the diagonal),
    each start's sums by domain.running_sums."""
    T = instance.horizon
    mean, var = instance.means, [s * s for s in instance.std_devs]
    means, variances = np.zeros((T, T)), np.zeros((T, T))
    for j in range(T):
        means[j, j:] = running_sums(mean[j:])[1:]
        variances[j, j:] = running_sums(var[j:])[1:]
    return means, np.sqrt(variances)


def pair_row(j, t):
    """The Segments row of cycle pair (j, t): t(t - 1)/2 + j - 1."""
    return t * (t - 1) // 2 + j - 1


@dataclass(frozen=True, eq=False)
class Segments:
    """Piecewise segment data of every cycle pair (j, t), j <= t, of one
    instance: one row per pair, in the order of period t, then start j
    (pair_row). Row r is the convolved demand's loss.piecewise_loss:
    lower(y) = max(y - breakpoints[r], 0) @ steps, and upper(y) adds
    errors[r]. `lines` holds the rule lines' intercepts (error bound
    included), which a piecewise rule reads at its row. The model-row
    arrays (`model_rows`) are what the emitter reads: the slopes and the
    cut coefficients slope * mean + intercept + e. Every array
    is read-only; `partition` is the (cells, strategy) and `demands` the
    instance's demands the rows were built from."""
    partition: tuple
    demands: tuple
    breakpoints: np.ndarray  # (pairs, cells)
    means: np.ndarray        # (pairs,)
    errors: np.ndarray       # (pairs,)
    steps: np.ndarray        # (cells,): the slopes' steps, shared by all rows
    slopes: np.ndarray       # (pairs, cells + 1), every row the partition's
    lines: np.ndarray        # (pairs, cells + 1)
    cuts: np.ndarray         # (pairs, cells + 1)

    @property
    def model_rows(self) -> tuple:
        return self.slopes, self.cuts

    def check(self, instance: Instance) -> None:
        """ValueError unless the rows were built from `instance`'s demands."""
        horizon = instance.horizon
        pairs = horizon * (horizon + 1) // 2
        if len(self.means) != pairs:
            raise ValueError(f"segments hold {len(self.means)} cycle pairs; "
                             f"a {horizon}-period instance has {pairs}")
        for t, (built, given) in enumerate(zip(self.demands, instance.demands), 1):
            if built != given:
                raise ValueError(f"segments were built from period {t} demand "
                                 f"{built}; the instance's is {given}")


def build_segments(instance: Instance, segments: int = 11,
                   strategy: str = "equal-probability") -> Segments:
    """The Segments of every (j, t) pair for the convolved demands, in one
    array pass over a partition of `segments` cells."""
    validate(instance)
    partition, err = cached_partition(segments, strategy)
    by_end = np.tri(instance.horizon, dtype=bool)  # row t - 1, column j - 1
    means, sds = (a.T[by_end] for a in convolved_demand(instance))
    slopes = np.tile(partition.slopes, (len(means), 1))
    steps = np.diff(partition.slopes)
    breakpoints = means[:, None] + sds[:, None] * np.asarray(partition.conditional_means)
    errors = sds * err
    # intercepts c_i with lower(y) = max_i(slopes[i] * y + c_i)
    icpt = np.concatenate((np.zeros((len(means), 1)),
                           -np.cumsum(np.diff(slopes) * breakpoints, axis=-1)), axis=-1)
    out = Segments((int(segments), strategy), instance.demands, breakpoints,
                   means, errors, steps, slopes, icpt + errors[:, None],
                   slopes * means[:, None] + icpt + errors[:, None])
    for a in vars(out).values():
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return out


def default_big_m(instance: Instance, fixed_i0: float | None = None) -> float:
    total_mean, total_var = instance.demand_totals
    total_sd = math.sqrt(total_var)
    extra = abs(fixed_i0) if fixed_i0 is not None else 0.0
    return total_mean + 6.0 * total_sd + extra


def level_bounds(instance: Instance, big_m: float) -> tuple[float, float]:
    """(lower, upper) bound of every inventory level of a submodel.

    The reorder root can sit K/(b - c) below zero (the never-order band),
    and closing levels run a full horizon of demand below the initial one.
    """
    total_mean = instance.demand_totals[0]
    lower = -(big_m + instance.costs.never_order_depth + total_mean + 10.0)
    return lower, big_m + 10.0


def _add_submodel(em: _Emitter, instance: Instance, big_m: float, label: str,
                  pieces: tuple, first_order: bool,
                  fixed_i0: float | None, objective_from: int) -> tuple:
    """Emit columns, rows, piecewise rules and cuts for one submodel.

    pieces: the instance's Segments.model_rows, of which period t reads
    rows t(t - 1)/2 to t(t + 1)/2 - 1, its pairs (1..t, t). objective_from:
    first local period whose K/h/b terms enter the model objective (2 for
    the joint model's no-order side). Returns the submodel's full cost
    terms, every period's included, and its level columns I0, I_1..I_T.
    Records the -mean_t right-hand sides' sources.
    """
    T = instance.horizon
    costs = instance.costs
    bound_lo, bound_hi = level_bounds(instance, big_m)

    I = [em.var(f"I0_{label}", bound_lo, bound_hi)]
    if fixed_i0 is not None:
        em.fix(I[0], fixed_i0)
    cost, deltas, holds, backs, rules = [], [], [], [], []
    for t in range(1, T + 1):
        I.append(em.var(f"I_{label}_{t}", bound_lo, bound_hi))
        hold = em.var(f"H_{label}_{t}", 0.0)
        back = em.var(f"B_{label}_{t}", 0.0)
        delta = em.var(f"delta_{label}_{t}", 0.0, 1.0, binary=True)
        holds.append(hold)
        backs.append(back)
        rules.append(len(em.rules["selector"]))
        P = [em.var(f"P_{label}_{j}_{t}", 0.0, 1.0, binary=True)
             for j in range(1, t + 1)]
        if t == 1:
            em.fix(delta, 1.0 if first_order else 0.0)
            em.fix(P[0], 1.0)
        deltas.append(delta)
        mean_t = instance.means[t - 1]
        # expected order quantity: nonnegative, and zero without an order
        em.add_row(f"order_nonneg_{label}_{t}", [I[t], I[t - 1]], [1.0, -1.0],
                   ">=", -mean_t, source=(_NEG_MEAN, t - 1))
        em.add_row(f"no_order_balance_{label}_{t}_row", [I[t], I[t - 1]],
                   [1.0, -1.0], "==", -mean_t, kind=INDICATOR, condition=delta,
                   source=(_NEG_MEAN, t - 1))
        # exactly one cycle start covers t
        em.add_row(f"cycle_assign_{label}_{t}", P, [1.0] * t, "==", 1.0)
        # the most recent cycle start is identified uniquely; period 1
        # counts as a start whether or not an order is placed there
        em.add_row(f"cycle_link_{label}_1_{t}", [P[0]] + deltas[1:],
                   [1.0] * t, ">=", 1.0)
        for j in range(2, t + 1):
            em.add_row(f"cycle_link_{label}_{j}_{t}", [P[j - 1]] + deltas[j - 1:],
                       [1.0, -1.0] + [1.0] * (t - j), ">=", 0.0)

        # a cost term is (column, weight, the weight's index into _COEF)
        terms = [(delta, costs.fixed, 0), (hold, costs.holding, 1),
                 (back, costs.penalty, 2)]
        cost += terms
        if t >= objective_from:
            em.objective += terms
        rows = slice(t * (t - 1) // 2, t * (t + 1) // 2)
        _emit_pieces(em, label, t, tuple(a[rows] for a in pieces), I[t], hold,
                     back, P, equality=t < objective_from)

    # c (I_T + D(1..T)): the orders' unit cost plus c I0, charged from
    # level zero as the SDP charges it
    unit_terms = [(I[T], costs.unit, 3)]
    cost += unit_terms
    em.objective += unit_terms
    em.constant += costs.unit * instance.demand_totals[0]
    arrays = [np.array(a, dtype=np.intp) for a in (I[1:], holds, backs, deltas, rules)]
    for a in arrays:
        a.flags.writeable = False
    em.columns[label] = Columns(I[0], *arrays)
    return cost, I


def _emit_pieces(em: _Emitter, label: str, t: int, pieces: tuple,
                 inv: int, hold: int, back: int, selectors: list,
                 equality: bool):
    """Period t's piecewise rules, one per cycle start j, and its valid
    lower-bounding cut rows: for every segment i,
    H_t >= slope_i * I_t + sum_j (slope_i * mu_jt + intercept_i^jt + e_jt) P_jt
    and the same shifted by -I_t for B_t. Records the sources of the cut
    data that comes from the pieces: segment i of rule r is entry
    r * n_seg + i, which JointStack maps to rule r's piece."""
    slopes, const = pieces
    n_seg = slopes.shape[1]
    src = np.arange(t * n_seg).reshape(t, n_seg) + n_seg * len(em.rules["selector"])
    em.add_rules(selector=selectors, inventory=[inv] * t, holding=[hold] * t,
                 backorder=[back] * t,
                 piece=range(pair_row(1, t), pair_row(1, t + 1)),
                 start=range(1, t + 1), period=[t] * t, label=[label] * t,
                 equality=[equality] * t)
    cols = np.empty((2 * n_seg, t + 2), dtype=np.intp)
    cols[0::2, 0], cols[1::2, 0], cols[:, 1], cols[:, 2:] = hold, back, inv, selectors
    vals = np.empty(cols.shape)
    vals[:, 0] = 1.0
    vals[0::2, 1] = -slopes[0]
    vals[1::2, 1] = -(slopes[0] - 1.0)
    vals[0::2, 2:] = vals[1::2, 2:] = -const.T
    at = len(em.vals) + np.arange(cols.size).reshape(cols.shape)  # data entries
    em.take("data", at[0::2, 1], _NEG_SLOPE, src[0])
    em.take("data", at[1::2, 1], _ONE_LESS, src[0])
    em.take("data", at[:, 2:], _NEG_CONST, src.T.repeat(2, axis=0))
    names = (f"cut_{q}_{label}_{t}_{i}" for i in range(n_seg) for q in "HB")
    for name, row_cols, row_vals in zip(names, cols.tolist(), vals.tolist()):
        em.add_row(name, row_cols, row_vals, ">=", 0.0, CUT)


def build_minlp_s(instance: Instance, segments: Segments,
                  initial_inventory: float | None = None) -> MilpModel:
    """No-order-in-period-1 model; free initial level unless fixed."""
    validate(instance)
    segments.check(instance)
    big_m = default_big_m(instance, initial_inventory)
    em = _Emitter()
    _add_submodel(em, instance, big_m, "s", segments.model_rows,
                  first_order=False, fixed_i0=initial_inventory, objective_from=1)
    return em.model("s", instance, big_m, segments)


def build_minlp_S(instance: Instance, segments: Segments) -> MilpModel:
    """Forced-order-in-period-1 model; the free initial level doubles as the
    period-1 order-up-to level via the pin row I0_S = I_S_1 + mean_1."""
    validate(instance)
    segments.check(instance)
    big_m = default_big_m(instance)
    em = _Emitter()
    _, I = _add_submodel(em, instance, big_m, "S", segments.model_rows,
                         first_order=True, fixed_i0=None, objective_from=1)
    em.add_row("pin_I0_S", I[:2], [1.0, -1.0], "==", instance.means[0])
    return em.model("S", instance, big_m, segments)


def _add_joint(em: _Emitter, instance: Instance, pieces: tuple) -> float:
    """Emit a joint model's columns, rows and rules into `em` after what it
    holds, recording the slots of its instance numbers; returns its big-M.

    The objective takes the forced-order side over all periods plus the
    no-order side from period 2; the no-order side's period-1 terms live
    only inside the linked cost expression G_s.
    """
    big_m = default_big_m(instance)
    cost_S, I_S = _add_submodel(em, instance, big_m, "S", pieces,
                                first_order=True, fixed_i0=None, objective_from=1)
    cost_s, I_s = _add_submodel(em, instance, big_m, "s", pieces,
                                first_order=False, fixed_i0=None, objective_from=2)
    em.add_row("pin_I0_S", I_S[:2], [1.0, -1.0], "==", instance.means[0],
               source=(_MEAN, 0))
    # each linked cost is its side's full cost expression
    unit_total = instance.costs.unit * instance.demand_totals[0]
    linked = []
    for name, cost in (("C_S", cost_S), ("G_s", cost_s)):
        linked.append(em.var(name))
        cols, coefs, tags = zip(*cost)
        # the row's first term is the linked cost column
        em.take("data", len(em.vals) + 1 + np.arange(len(cost)), _NEG_COEF, tags)
        em.add_row(f"def_{name}", [linked[-1], *cols], [1.0, *(-w for w in coefs)],
                   "==", unit_total, source=(_UNIT_TOTAL, 0))
    em.add_row("link_cost", linked[::-1], [1.0, -1.0], "==", 0.0)
    em.add_row("link_order", [I_s[0], I_S[0]], [1.0, -1.0], "<=", 0.0)
    return big_m


def _stack_values(instance: Instance, segments: Segments, count: int) -> list:
    """What the joint models of suffixes 1..count of an instance take from
    it, one list or array per section, in the order of the section codes:
    the cost coefficients, the means, every suffix's unit-cost total and
    the cut data of every row of its Segments."""
    slopes, const = segments.slopes, segments.cuts
    costs = instance.costs
    # Python scalars negated as the emitter negates them, zeros' signs too
    coefs = [costs.fixed, costs.holding, costs.penalty, costs.unit]
    means = instance.means
    # suffix k's demand total as Instance.suffix(k).demand_totals sums it
    totals = [costs.unit * running_sums(means[o:])[-1] for o in range(count)]
    return [coefs, [-w for w in coefs], means, [-m for m in means], totals,
            -slopes.ravel(), -(slopes.ravel() - 1.0), -const.ravel()]


@dataclass(frozen=True)
class JointStack:
    """The joint models of suffixes 1..count of a T-period instance with one
    segment count, as the diagonal blocks of one model.
    Block b, suffix b + 1, is the (T - b)-period joint model; all blocks
    are emitted once per key, with zero numbers, by one emitter, so each
    block's columns, rows, matrix entries and rules follow the blocks
    before it. `model` is that stack; its names repeat per block, and its
    index and columns are block 0's. Each slot the emitter recorded for an
    instance number (a right-hand side, matrix entry or objective term)
    keeps its source, composed with its block's suffix into an entry of
    the concatenated sections of _stack_values, and each rule's piece is
    the instance's row of its composed pair. Every array is read-only.

    A fill reads the instance's Segments, whose model rows have the layout
    of the zero pieces its blocks are emitted from, and shares the rules.
    build_joint is the one-block stack; mp_policy fills the stack of all T
    suffixes once per instance and checks all their answers with one
    verify_assignment pass (JointStack.verify)."""
    model: MilpModel
    columns: tuple            # block b's label -> Columns
    linked: np.ndarray        # block b's (C_S, G_s) columns, at row b
    col_starts: np.ndarray    # block b's first column, row and rule at
    row_starts: np.ndarray    # entry b
    rule_starts: np.ndarray
    levels: np.ndarray        # level columns, bounded by level_bounds ...
    level_blocks: np.ndarray  # ... of the suffix of their block
    rhs_slots: np.ndarray     # rows with an instance number rhs ...
    rhs_sources: np.ndarray   # ... and its source
    data_slots: np.ndarray    # matrix data entries likewise ...
    data_sources: np.ndarray  # ... and theirs
    objective_sources: np.ndarray  # every objective coefficient's source

    @staticmethod
    @functools.cache
    def of(T: int, n_seg: int, count: int) -> "JointStack":
        """The stack of a key, emitted on its first use."""
        em = _Emitter()
        columns, linked, starts, pieces = [], [], [], []
        for b in range(count):
            n = T - b
            m = n * (n + 1) // 2
            starts.append((len(em.names), len(em.meta), len(em.rules["selector"])))
            em.block = b
            _add_joint(em, Instance(CostParameters(fixed=0.0),
                                    (NormalDemand(0.0, 0.0),) * n),
                       (np.zeros((m, n_seg)),) * 2)
            if b == 0:
                index = MappingProxyType(dict(em.index))
            columns.append(MappingProxyType(dict(em.columns)))
            linked.append((em.index["C_S"], em.index["G_s"]))
            # local pair (j, t) is the instance's (j + b, t + b); both
            # sides read its row
            pieces += [pair_row(j + b, t + b)
                       for t in range(1, n + 1) for j in range(1, t + 1)] * 2
        model = em.model("joint", None, 0.0, None)
        pieces = np.array(pieces, dtype=np.intp)
        model = dataclasses.replace(
            model, names=tuple(model.names), index=index, columns=columns[0],
            piecewise=dataclasses.replace(model.piecewise, piece=pieces))
        # the instance layout: section starts of _stack_values
        pairs = T * (T + 1) // 2
        sections = np.cumsum([0, 4, 4, T, T, count] + [pairs * n_seg] * 2)

        def recorded(target: str) -> tuple:
            """The recorded slots and their sources in the instance layout."""
            slots, sources = [], []
            for slot, section, index, b in em.slots[target]:
                index = np.ravel(index)
                if section >= _NEG_SLOPE:
                    rule, seg = np.divmod(index, n_seg)
                    index = pieces[rule] * n_seg + seg
                elif section in (_MEAN, _NEG_MEAN, _UNIT_TOTAL):
                    index = index + b
                slots.append(np.ravel(slot))
                sources.append(sections[section] + index)
            return np.concatenate(slots), np.concatenate(sources)

        levels = [[c.initial, *c.inventory] for block in columns
                  for c in block.values()]
        stack = JointStack(
            model, tuple(columns), np.array(linked, dtype=np.intp),
            *np.array(starts).T, np.concatenate(levels),
            np.repeat(np.arange(count), [2 * len(a) for a in levels[::2]]),
            *recorded("rhs"), *recorded("data"),
            sections[_COEF] + np.array([tag for *_, tag in em.objective]))
        matrix = model.rows.matrix
        for arr in (*vars(stack).values(), *vars(model.rows).values(),
                    *vars(model.piecewise).values(), model.lb, model.ub,
                    model.binary, *model.objective, matrix.indptr,
                    matrix.indices, matrix.data, matrix.entry_rows):
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False
        return stack

    def fill(self, instance: Instance, segments: Segments,
             bounds: Sequence) -> MilpModel:
        """The stack of `instance`'s suffixes, from its Segments, with
        block b's levels bounded by bounds[b], a (lower, upper) pair: one
        gather each for the right-hand sides, the matrix data and the
        objective, one scatter of the level bounds. The structural arrays,
        the piecewise rules and the checks are shared. Its objective is the
        sum of the blocks' objectives, and its instance, big_m and segments
        are block 0's."""
        segments.check(instance)
        model = self.model
        sections = _stack_values(instance, segments, len(self.columns))
        values = np.concatenate(sections)
        lo, hi = np.array(bounds, dtype=float).T
        lb, ub = model.lb.copy(), model.ub.copy()
        lb[self.levels], ub[self.levels] = lo[self.level_blocks], hi[self.level_blocks]
        rhs = model.rows.rhs.copy()
        rhs[self.rhs_slots] = values[self.rhs_sources]
        matrix = model.rows.matrix
        data = matrix.data.copy()
        data[self.data_slots] = values[self.data_sources]
        rows = dataclasses.replace(model.rows, rhs=rhs,
                                   matrix=dataclasses.replace(matrix, data=data))
        constant = math.fsum(total + total for total in sections[_UNIT_TOTAL])
        # the binaries' bounds are structural (fill changes level bounds
        # only), so free_binaries carries over
        return dataclasses.replace(
            model, instance=instance, big_m=default_big_m(instance),
            segments=segments, lb=lb, ub=ub,
            objective=(model.objective[0], values[self.objective_sources]),
            objective_constant=constant, rows=rows)

    def verify(self, model: MilpModel, x: np.ndarray, tol: float = 1e-6) -> list:
        """verify_assignment of a filled stack's column vector, each name
        led by its block's suffix, "suffix k=3: link_cost"."""
        starts = (self.col_starts, self.row_starts, self.rule_starts)
        return [(f"suffix k={np.searchsorted(starts[axis], at, 'right')}: {name}",
                 amount) for name, amount, axis, at in _violations(model, x, tol)]


def build_joint(instance: Instance, segments: Segments) -> MilpModel:
    """Both submodels, the cost-equality link and the ordering I0_s <= I0_S,
    filled from the Segments as the one-block JointStack of the instance's
    key (see the module docstring); equal, array for array, to the joint
    model emitted row by row from the same model rows (_add_joint)."""
    validate(instance)
    stack = JointStack.of(instance.horizon, segments.slopes.shape[1], 1)
    bounds = level_bounds(instance, default_big_m(instance))
    return stack.fill(instance, segments, [bounds])


def verify_assignment(model: MilpModel, assignment, tol: float = 1e-6) -> list:
    """All violations beyond tol as (name, amount), worst first.

    `assignment` is a name -> value dict or a vector in column order (a
    solver's own answer is checked as its vector). A non-finite value is
    reported alone, as its column's bound violated by inf, before any
    arithmetic on it. Otherwise checks bounds,
    integrality of unfixed binaries, every row by one matrix-vector
    product (an indicator row only while its condition is 0) and each
    selected piecewise rule against its upper envelope, the maximum of its
    lines. The sense codes, indicator rows and free binaries come
    precomputed (RowTable.checks, MilpModel.free_binaries); names are
    built only for the violations found.
    """
    return [(name, amount) for name, amount, _, _ in
            _violations(model, model.vector(assignment), tol)]


def _violations(model: MilpModel, x: np.ndarray, tol: float) -> list:
    """verify_assignment's violations of a column vector x, each as (name,
    amount, axis, position): axis 0 for a column (bounds, integrality), 1
    for a row and 2 for a piecewise rule, at that position."""
    names = model.names
    nonfinite = np.flatnonzero(~np.isfinite(x))
    if len(nonfinite):
        return [(f"bound_{names[i]}", math.inf, 0, i) for i in nonfinite]
    bound = np.maximum(model.lb - x, x - model.ub)
    free = model.free_binaries
    fraction = np.abs(x[free] - np.round(x[free]))

    rows = model.rows
    checks = rows.checks
    gap = rows.matrix @ x - rows.rhs
    over = np.where(checks.equality, np.abs(gap), checks.sign * gap)
    over[checks.indicators[np.round(x[checks.conditions]) != 0]] = 0.0

    pw, segs = model.piecewise, model.segments
    chosen = np.flatnonzero(np.round(x[pw.selector]) == 1)
    level = x[pw.inventory[chosen]]
    at = pw.piece[chosen]
    upper = ((level + segs.means[at])[:, None] * segs.slopes[at]
             + segs.lines[at]).max(axis=1)
    miss = np.maximum(np.abs(x[pw.holding[chosen]] - upper),
                      np.abs(x[pw.backorder[chosen]] - (upper - level)))
    checked = (bound, fraction, over, miss)
    if not any((amounts > tol).any() for amounts in checked):
        return []

    bad = []
    for amounts, at, axis, name in (
            (bound, None, 0, lambda i: f"bound_{names[i]}"),
            (fraction, free, 0, lambda i: f"integrality_{names[i]}"),
            (over, None, 1, lambda i: str(rows.names[i])),
            (miss, chosen, 2,
             lambda i: f"loss_{pw.label[i]}_{pw.start[i]}_{pw.period[i]}")):
        hits = np.flatnonzero(amounts > tol)
        where = hits if at is None else at[hits]
        bad.extend((name(i), float(a), axis, int(i))
                   for i, a in zip(where, amounts[hits]))
    bad.sort(key=lambda kv: -kv[1])
    return bad
