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

Loss terms appear only through piecewise segment data: each period/cycle
pair (j, t) carries the convolved demand's PiecewiseLoss; the expected
overage H_t equals the upper-shifted piecewise function of the pre-demand
level, and the expected backorder satisfies B_t = H_t - I_t identically.

Cycle bookkeeping uses binaries delta_t (an order is placed in t) and P_jt
(the cycle covering t started in j). Period 1 always starts a cycle: the
initial level is deterministic, so the j = 1 linkage row uses the constant
1 rather than delta_1 (with a forced first order they coincide; without
one, the constant closes a loophole that would let the model pretend a
later, lower-variance cycle start).

Storage: a MilpModel is one table addressed by column index. Columns have
names, bounds and a binary mask; the objective is a sparse vector plus a
constant; every linear, cut and indicator row sits in one CSR matrix
(RowTable) and the piecewise rules in parallel arrays (PiecewiseRules).
Terms keep their emission order, which is the LP file's term order. Each
submodel's column layout (Columns: I0, and per period I_t, H_t, B_t,
delta_t and its first piecewise rule, whose selectors are the P_jt) is
recorded at emission, so a solver writes its answer as a column vector
without names. verify_assignment checks an assignment, a dict or such a
vector, against the table with array expressions, all rows by one
matrix-vector product; the sense codes and indicator rows
(RowTable.checks) and the free binaries are derived once per table.

Demand totals (big-M, level bounds, the unit-cost constants) are summed
left to right from 0.0 by domain.running_sums, as the convolved demands
are, so no bit depends on the interpreter's sum().

The joint model's structure depends only on the horizon, the segment count
and whether the unit cost is nonzero. _emit_joint, the emitter below, is
its only definition. build_joint emits it once per such key into a
skeleton that records where the instance numbers go (level bounds, the
-mean_t and pin right-hand sides, the cost rows and objective weights, the
cut blocks and the piecewise data), then fills a copy of the numeric
arrays per call. Its models share the structural arrays (names, index,
binary mask, row names, senses, kinds, conditions, CSR indices and
indptr, rule index arrays, column layouts) read-only, and the checks
derived from them.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np
from scipy import sparse

from .domain import (CostParameters, Instance, NormalDemand, running_sums,
                     validate)
# piecewise_loss stays importable here: bench/tracing.py patches this name
from .loss import (cached_partition, piecewise_loss,  # noqa: F401
                   piecewise_losses, segment_intercepts)

ROW, CUT, INDICATOR = 0, 1, 2  # row kinds, in the order the LP file lists them


@dataclass
class RowTable:
    """Every row of a model. An indicator row holds only while the binary in
    column `condition` is 0 (no order placed); `condition` is -1 elsewhere."""
    matrix: sparse.csr_array
    names: np.ndarray
    sense: np.ndarray        # "<=", ">=" or "=="
    rhs: np.ndarray
    kind: np.ndarray         # ROW, CUT or INDICATOR
    condition: np.ndarray

    def __len__(self) -> int:
        return len(self.names)

    @cached_property
    def checks(self) -> "RowChecks":
        """What verify_assignment reads of the rows' structure, derived on
        first use; refill shares it."""
        sign = np.select([self.sense == "<=", self.sense == ">="], [1.0, -1.0], 0.0)
        indicators = np.flatnonzero(self.kind == INDICATOR)
        out = RowChecks(sign, sign == 0.0, indicators, self.condition[indicators])
        for a in vars(out).values():
            a.flags.writeable = False
        return out

    def refill(self, rhs: np.ndarray, matrix: sparse.csr_array) -> "RowTable":
        """The same rows with other numbers (right-hand sides and matrix
        data on the same sparsity pattern); the structural arrays and their
        checks are shared."""
        out = dataclasses.replace(self, rhs=rhs, matrix=matrix)
        out.__dict__["checks"] = self.checks
        return out


@dataclass(frozen=True)
class RowChecks:
    """A row's violation is sign * (lhs - rhs), or |lhs - rhs| for an
    equality (sign 0); the indicator rows and their condition columns."""
    sign: np.ndarray
    equality: np.ndarray
    indicators: np.ndarray
    conditions: np.ndarray


@dataclass
class PiecewiseRules:
    """selector = 1 implies holding = upper(inventory + shift) and
    backorder = holding - inventory, one rule per cycle pair (start, period)
    of each submodel; upper is the maximum of the lines slopes * y +
    intercepts (error bound included). equality marks rules whose holding
    and backorder carry no objective weight, so LP export must encode the
    equality explicitly instead of relying on minimization."""
    selector: np.ndarray
    inventory: np.ndarray
    holding: np.ndarray
    backorder: np.ndarray
    shift: np.ndarray
    start: np.ndarray
    period: np.ndarray
    label: np.ndarray
    equality: np.ndarray
    slopes: np.ndarray       # (rule, segment)
    intercepts: np.ndarray

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
    submodels: tuple
    segments: Mapping          # (j, t) -> PiecewiseLoss
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

    @cached_property
    def free_binaries(self) -> np.ndarray:
        """Columns of the binaries that the bounds leave free, derived on
        first use (from structural bounds: a skeleton's fills share it)."""
        out = np.flatnonzero(self.binary & (self.lb != self.ub))
        out.flags.writeable = False
        return out


class _Emitter:
    """A model under construction, by column index; `model` freezes it."""

    def __init__(self):
        self.names, self.lb, self.ub, self.binary = [], [], [], []
        self.index = {}
        self.objective = []      # (column, coefficient)
        self.constant = 0.0
        self.cols, self.vals, self.indptr = [], [], [0]
        self.meta = []           # (name, sense, rhs, kind, condition) per row
        self.rules = defaultdict(list)  # PiecewiseRules field -> values
        self.columns = {}        # submodel label -> Columns

    def var(self, name, lb=-math.inf, ub=math.inf, binary=False) -> int:
        col = self.index[name] = len(self.names)
        self.names.append(name)
        self.lb.append(lb)
        self.ub.append(ub)
        self.binary.append(binary)
        return col

    def fix(self, col, value):
        self.lb[col] = self.ub[col] = value

    def add_row(self, name, cols, vals, sense, rhs, kind=ROW, condition=-1):
        self.cols += cols
        self.vals += vals
        self.indptr.append(len(self.cols))
        self.meta.append((name, sense, rhs, kind, condition))

    def add_rules(self, **fields):
        """Piecewise rules, one per entry of every field."""
        for key, values in fields.items():
            self.rules[key] += list(values)

    def model(self, kind, instance, big_m, submodels, segments) -> MilpModel:
        matrix = sparse.csr_array(
            (np.array(self.vals), np.array(self.cols), np.array(self.indptr)),
            shape=(len(self.meta), len(self.names)))
        # meta holds RowTable's fields after the matrix, in order
        rows = RowTable(matrix, *map(np.array, zip(*self.meta)))
        rules = PiecewiseRules(**{key: np.array(values)
                                  for key, values in self.rules.items()})
        cols, coefs = zip(*self.objective)
        return MilpModel(
            kind=kind, instance=instance, big_m=big_m, submodels=submodels,
            segments=segments,
            names=self.names, index=self.index, lb=np.array(self.lb, dtype=float),
            ub=np.array(self.ub, dtype=float), binary=np.array(self.binary),
            objective=(np.array(cols), np.array(coefs, dtype=float)),
            objective_constant=self.constant, rows=rows, piecewise=rules,
            columns=MappingProxyType(self.columns))


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


def cumulative_demand(instance: Instance, j: int, t: int) -> tuple[float, float]:
    """Mean and std dev of demand convolved over periods j..t (1-based)."""
    means, sds = convolved_demand(instance)
    return float(means[j - 1, t - 1]), float(sds[j - 1, t - 1])


def build_segments(instance: Instance, segments: int = 11,
                   strategy: str = "equal-probability") -> dict:
    """PiecewiseLoss per (j, t) pair, j <= t, for the convolved demands,
    all built in one array pass (loss.piecewise_losses)."""
    validate(instance)
    partition, err = cached_partition(segments, strategy)
    T = instance.horizon
    keys = [(j, t) for t in range(1, T + 1) for j in range(1, t + 1)]
    by_end = np.tri(T, dtype=bool)  # row t - 1, column j - 1: keys' order
    means, sds = convolved_demand(instance)
    return dict(zip(keys, piecewise_losses(
        partition, means.T[by_end].tolist(), sds.T[by_end].tolist(), error=err)))


def default_big_m(instance: Instance, fixed_i0: float | None = None) -> float:
    total_mean, total_var = instance.demand_totals
    total_sd = math.sqrt(total_var)
    extra = abs(fixed_i0) if fixed_i0 is not None else 0.0
    return total_mean + 6.0 * total_sd + extra


def level_bounds(instance: Instance, big_m: float) -> tuple[float, float]:
    """(lower, upper) bound of every inventory level of a submodel.

    The reorder root can sit K/b below zero (the never-order band), and
    closing levels run a full horizon of demand below the initial one.
    """
    costs = instance.costs
    total_mean = instance.demand_totals[0]
    lower = -(big_m + costs.fixed / costs.penalty + total_mean + 10.0)
    return lower, big_m + 10.0


def period_pieces(instance: Instance, segments: Mapping) -> list:
    """Segment data of every period t (entry t - 1) as arrays over cycle
    starts 1..t: slopes, rule-line intercepts (error bound included),
    demand shifts and cut coefficients slope * mu + intercept + e. Every
    piece must have the same segment count. A segment source with its own
    arrays (solver.SuffixView, cut from its table's) hands those over."""
    if hasattr(segments, "period_pieces"):
        return segments.period_pieces()
    pieces = []
    for t in range(1, instance.horizon + 1):
        for j in range(1, t + 1):
            if (j, t) not in segments:
                raise ValueError(f"segments missing for cycle pair (j={j}, t={t})")
            pieces.append(segments[(j, t)])
            if pieces[-1].segment_count != pieces[0].segment_count:
                raise ValueError(f"segment count mismatch at (j={j}, t={t})")
    slopes = np.array([pw.slopes for pw in pieces])
    icpt = segment_intercepts(slopes, np.array([pw.breakpoints for pw in pieces]))
    means = np.array([pw.mean for pw in pieces])
    errs = np.array([pw.error_bound for pw in pieces])[:, None]
    arrays = (slopes, icpt + errs, means, slopes * means[:, None] + icpt + errs)
    # period t's pieces start at t(t - 1)/2
    starts = np.cumsum(np.arange(1, instance.horizon))
    return list(zip(*(np.split(a, starts) for a in arrays)))


def _add_submodel(em: _Emitter, instance: Instance, big_m: float, label: str,
                  periods: list, first_order: bool,
                  fixed_i0: float | None, objective_from: int) -> tuple:
    """Emit columns, rows, piecewise rules and cuts for one submodel.

    objective_from: first local period whose K/h/b terms enter the model
    objective (2 for the joint model's no-order side). Returns the
    submodel's full cost terms, every period's included, and its level
    columns I0, I_1..I_T.
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
                   ">=", -mean_t)
        em.add_row(f"no_order_balance_{label}_{t}_row", [I[t], I[t - 1]],
                   [1.0, -1.0], "==", -mean_t, kind=INDICATOR, condition=delta)
        # exactly one cycle start covers t
        em.add_row(f"cycle_assign_{label}_{t}", P, [1.0] * t, "==", 1.0)
        # the most recent cycle start is identified uniquely; period 1
        # counts as a start whether or not an order is placed there
        em.add_row(f"cycle_link_{label}_1_{t}", [P[0]] + deltas[1:],
                   [1.0] * t, ">=", 1.0)
        for j in range(2, t + 1):
            em.add_row(f"cycle_link_{label}_{j}_{t}", [P[j - 1]] + deltas[j - 1:],
                       [1.0, -1.0] + [1.0] * (t - j), ">=", 0.0)

        terms = [(delta, costs.fixed), (hold, costs.holding), (back, costs.penalty)]
        cost += terms
        if t >= objective_from:
            em.objective += terms
        _emit_pieces(em, label, t, periods[t - 1], I[t], hold, back, P,
                     equality=t < objective_from)

    if costs.unit:
        unit_terms = [(I[0], -costs.unit), (I[T], costs.unit)]
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
    and the same shifted by -I_t for B_t."""
    slopes, lines, means, const = pieces
    em.add_rules(selector=selectors, inventory=[inv] * t, holding=[hold] * t,
                 backorder=[back] * t, shift=means, start=range(1, t + 1),
                 period=[t] * t, label=[label] * t, equality=[equality] * t,
                 slopes=slopes, intercepts=lines)
    n_seg = slopes.shape[1]
    cols = np.empty((2 * n_seg, t + 2), dtype=np.intp)
    cols[0::2, 0], cols[1::2, 0], cols[:, 1], cols[:, 2:] = hold, back, inv, selectors
    vals = np.empty(cols.shape)
    vals[:, 0] = 1.0
    vals[0::2, 1] = -slopes[0]
    vals[1::2, 1] = -(slopes[0] - 1.0)
    vals[0::2, 2:] = vals[1::2, 2:] = -const.T
    names = (f"cut_{q}_{label}_{t}_{i}" for i in range(n_seg) for q in "HB")
    for name, row_cols, row_vals in zip(names, cols.tolist(), vals.tolist()):
        em.add_row(name, row_cols, row_vals, ">=", 0.0, CUT)


def build_minlp_s(instance: Instance, segments: Mapping,
                  initial_inventory: float | None = None) -> MilpModel:
    """No-order-in-period-1 model; free initial level unless fixed."""
    validate(instance)
    periods = period_pieces(instance, segments)
    big_m = default_big_m(instance, initial_inventory)
    em = _Emitter()
    _add_submodel(em, instance, big_m, "s", periods, first_order=False,
                  fixed_i0=initial_inventory, objective_from=1)
    return em.model("s", instance, big_m, ("s",), segments)


def build_minlp_S(instance: Instance, segments: Mapping) -> MilpModel:
    """Forced-order-in-period-1 model; the free initial level doubles as the
    period-1 order-up-to level via the pin row I0_S = I_S_1 + mean_1."""
    validate(instance)
    periods = period_pieces(instance, segments)
    big_m = default_big_m(instance)
    em = _Emitter()
    _, I = _add_submodel(em, instance, big_m, "S", periods, first_order=True,
                         fixed_i0=None, objective_from=1)
    em.add_row("pin_I0_S", I[:2], [1.0, -1.0], "==", instance.means[0])
    return em.model("S", instance, big_m, ("S",), segments)


def _emit_joint(instance: Instance, periods: list, segments) -> MilpModel:
    """The joint model, row by row: both submodels, the cost-equality link
    and the ordering I0_s <= I0_S. build_joint fills copies of it.

    The objective takes the forced-order side over all periods plus the
    no-order side from period 2; the no-order side's period-1 terms live
    only inside the linked cost expression G_s.
    """
    big_m = default_big_m(instance)
    em = _Emitter()
    cost_S, I_S = _add_submodel(em, instance, big_m, "S", periods,
                                first_order=True, fixed_i0=None, objective_from=1)
    cost_s, I_s = _add_submodel(em, instance, big_m, "s", periods,
                                first_order=False, fixed_i0=None, objective_from=2)
    em.add_row("pin_I0_S", I_S[:2], [1.0, -1.0], "==", instance.means[0])
    # each linked cost is its side's full cost expression
    unit_total = instance.costs.unit * instance.demand_totals[0]
    linked = []
    for name, cost in (("C_S", cost_S), ("G_s", cost_s)):
        linked.append(em.var(name))
        em.add_row(f"def_{name}", [linked[-1]] + [col for col, _ in cost],
                   [1.0] + [-coef for _, coef in cost], "==", unit_total)
    em.add_row("link_cost", linked[::-1], [1.0, -1.0], "==", 0.0)
    em.add_row("link_order", [I_s[0], I_S[0]], [1.0, -1.0], "<=", 0.0)
    return em.model("joint", instance, big_m, ("S", "s"), segments)


# the cost weight each objective or cost-row column carries, by the
# column's name prefix, as an index into _Skeleton.fill's weight vector
_WEIGHT = {"delta": 0, "H": 1, "B": 2, "I0": 3, "I": 4}  # K, h, b, -c, c


@dataclass(frozen=True)
class _Skeleton:
    """The joint model of one (horizon, segment count, c != 0) key, emitted
    once with zero numbers, and the slots that hold instance numbers.
    Every array of `model` is read-only: fill copies the numeric ones."""
    model: MilpModel
    levels: np.ndarray       # level columns, bounded by level_bounds
    mean_rows: np.ndarray    # rows whose rhs is -mean_t ...
    mean_period: np.ndarray  # ... and their t - 1
    pin_row: int             # rhs mean_1
    def_rows: np.ndarray     # rhs c * sum of means
    def_slots: np.ndarray    # data of the def rows' cost terms ...
    def_weight: np.ndarray   # ... and their _WEIGHT
    objective_weight: np.ndarray
    slope_slots: np.ndarray  # cut data: -slope_i (H rows) ...
    less_one_slots: np.ndarray  # ... and -(slope_i - 1) (B rows) of start 1 ...
    slope_source: np.ndarray    # ... at these entries of a side's flat slopes
    const_slots: np.ndarray  # cut data: -const of each start ...
    const_source: np.ndarray  # ... at these entries of a side's flat consts

    @staticmethod
    @functools.cache
    def of(T: int, n_seg: int, unit: bool) -> "_Skeleton":
        """The skeleton of a key, emitted on its first use."""
        probe = Instance(CostParameters(fixed=0.0, unit=float(unit)),
                         (NormalDemand(0.0, 0.0),) * T)
        periods = [(np.zeros((t, n_seg)),) * 2 + (np.zeros(t), np.zeros((t, n_seg)))
                   for t in range(1, T + 1)]
        model = _emit_joint(probe, periods, None)
        rows = {name: r for r, name in enumerate(model.rows.names.tolist())}
        indptr, indices = model.rows.matrix.indptr, model.rows.matrix.indices
        names, index = model.names, model.index

        def weight(cols):
            return np.array([_WEIGHT[names[c].split("_")[0]] for c in cols])

        def_rows = [rows["def_C_S"], rows["def_G_s"]]
        # each def row's first term is its linked cost column
        def_slots = np.concatenate([np.arange(indptr[r] + 1, indptr[r + 1])
                                    for r in def_rows])
        slope, less_one, slope_src, const, const_src = [], [], [], [], []
        for lab in "Ss":
            for t in range(1, T + 1):
                # _emit_pieces' block: rows H_0, B_0, H_1, ..., each with
                # the terms holding or backorder, inventory, P_1..P_t
                first = (t - 1) * t // 2 * n_seg  # period t's first rule
                at = indptr[rows[f"cut_H_{lab}_{t}_0"]] + np.arange(
                    2 * n_seg * (t + 2)).reshape(2 * n_seg, t + 2)
                slope.append(at[0::2, 1])
                less_one.append(at[1::2, 1])
                slope_src.append(first + np.arange(n_seg))
                const.append(at[:, 2:].ravel())
                const_src.append((first + np.arange(t) * n_seg
                                  + np.arange(2 * n_seg)[:, None] // 2).ravel())
        shared = [model.lb, model.ub, model.binary, *model.objective, indptr,
                  indices, model.rows.matrix.data, *vars(model.piecewise).values()]
        shared += [v for v in vars(model.rows).values() if isinstance(v, np.ndarray)]
        for arr in shared:
            arr.flags.writeable = False
        return _Skeleton(
            model=dataclasses.replace(model, names=tuple(names),
                                      index=MappingProxyType(index)),
            levels=np.array([index[f"I0_{lab}"] for lab in "Ss"]
                            + [index[f"I_{lab}_{t}"] for lab in "Ss"
                               for t in range(1, T + 1)]),
            mean_rows=np.array([rows[f"{name}_{lab}_{t}{end}"] for lab in "Ss"
                                for t in range(1, T + 1)
                                for name, end in (("order_nonneg", ""),
                                                  ("no_order_balance", "_row"))]),
            mean_period=np.tile(np.repeat(np.arange(T), 2), 2),
            pin_row=rows["pin_I0_S"], def_rows=np.array(def_rows),
            def_slots=def_slots, def_weight=weight(indices[def_slots]),
            objective_weight=weight(model.objective[0]),
            slope_slots=np.concatenate(slope), less_one_slots=np.concatenate(less_one),
            slope_source=np.concatenate(slope_src),
            const_slots=np.concatenate(const), const_source=np.concatenate(const_src))

    def fill(self, instance: Instance, periods: list, segments) -> MilpModel:
        """The model _emit_joint(instance, periods, segments) emits."""
        model = self.model
        big_m = default_big_m(instance)
        costs = instance.costs
        # Python scalars negated as the emitter negates them, zeros' signs too
        weights = (costs.fixed, costs.holding, costs.penalty, -costs.unit, costs.unit)
        unit_total = costs.unit * instance.demand_totals[0]

        lb, ub = model.lb.copy(), model.ub.copy()
        lb[self.levels], ub[self.levels] = level_bounds(instance, big_m)

        rhs = model.rows.rhs.copy()
        rhs[self.mean_rows] = np.array([-m for m in instance.means])[self.mean_period]
        rhs[self.pin_row] = instance.means[0]
        rhs[self.def_rows] = unit_total

        slopes, lines, shift, const = (np.concatenate(a) for a in zip(*periods))
        slope_at = slopes.ravel()[self.slope_source]
        data = model.rows.matrix.data.copy()
        data[self.slope_slots] = -slope_at
        data[self.less_one_slots] = -(slope_at - 1.0)
        data[self.const_slots] = -const.ravel()[self.const_source]
        data[self.def_slots] = np.array([-w for w in weights], dtype=float)[self.def_weight]
        matrix = model.rows.matrix
        rows = model.rows.refill(rhs, sparse.csr_array(
            (data, matrix.indices, matrix.indptr), shape=matrix.shape))

        # both sides read the same pieces
        piecewise = dataclasses.replace(
            model.piecewise, shift=np.concatenate([shift, shift]),
            slopes=np.concatenate([slopes, slopes]),
            intercepts=np.concatenate([lines, lines]))
        filled = dataclasses.replace(
            model, instance=instance, big_m=big_m, segments=segments,
            lb=lb, ub=ub,
            objective=(model.objective[0],
                       np.array(weights, dtype=float)[self.objective_weight]),
            objective_constant=unit_total + unit_total if costs.unit else 0.0,
            rows=rows, piecewise=piecewise)
        # the binaries' bounds are structural: fill changes level bounds only
        filled.__dict__["free_binaries"] = model.free_binaries
        return filled


def build_joint(instance: Instance, segments: Mapping) -> MilpModel:
    """Both submodels, the cost-equality link and the ordering I0_s <= I0_S,
    filled from the skeleton of the instance's key (see the module
    docstring); equal, array for array, to what _emit_joint emits."""
    validate(instance)
    periods = period_pieces(instance, segments)
    skeleton = _Skeleton.of(instance.horizon, periods[0][0].shape[1],
                            bool(instance.costs.unit))
    return skeleton.fill(instance, periods, segments)


def verify_assignment(model: MilpModel, assignment, tol: float = 1e-6) -> list:
    """All violations beyond tol as (name, amount), worst first.

    `assignment` is a name -> value dict or a vector in column order (a
    solver's own answer is checked as its vector). Checks bounds,
    integrality of unfixed binaries, every row by one matrix-vector
    product (an indicator row only while its condition is 0) and each
    selected piecewise rule against its upper envelope, the maximum of its
    lines. The sense codes, indicator rows and free binaries come
    precomputed (RowTable.checks, MilpModel.free_binaries); names are
    built only for the violations found.
    """
    x = model.vector(assignment)
    bound = np.maximum(model.lb - x, x - model.ub)
    free = model.free_binaries
    fraction = np.abs(x[free] - np.round(x[free]))

    rows = model.rows
    checks = rows.checks
    gap = rows.matrix @ x - rows.rhs
    over = np.where(checks.equality, np.abs(gap), checks.sign * gap)
    over[checks.indicators[np.round(x[checks.conditions]) != 0]] = 0.0

    pw = model.piecewise
    chosen = np.flatnonzero(np.round(x[pw.selector]) == 1)
    level = x[pw.inventory[chosen]]
    upper = ((level + pw.shift[chosen])[:, None] * pw.slopes[chosen]
             + pw.intercepts[chosen]).max(axis=1)
    miss = np.maximum(np.abs(x[pw.holding[chosen]] - upper),
                      np.abs(x[pw.backorder[chosen]] - (upper - level)))
    checked = (bound, fraction, over, miss)
    if not any((amounts > tol).any() for amounts in checked):
        return []

    names = model.names
    bad = []
    for amounts, at, name in (
            (bound, None, lambda i: f"bound_{names[i]}"),
            (fraction, free, lambda i: f"integrality_{names[i]}"),
            (over, None, lambda i: str(rows.names[i])),
            (miss, chosen,
             lambda i: f"loss_{pw.label[i]}_{pw.start[i]}_{pw.period[i]}")):
        hits = np.flatnonzero(amounts > tol)
        where = hits if at is None else at[hits]
        bad.extend((name(i), float(a)) for i, a in zip(where, amounts[hits]))
    bad.sort(key=lambda kv: -kv[1])
    return bad
