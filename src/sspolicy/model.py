"""Canonical MILP descriptions of the lot-sizing models.

Three related models are built over a T-period instance:

  * the no-first-order model ("s"): the first-period order is forbidden, so
    the optimal objective as a function of the initial inventory traces the
    cost-to-go curve whose root search yields reorder points;
  * the forced-first-order model ("S"): the first-period order is forced and
    the initial level is free, so the optimizer returns the order-up-to
    level; its optimum exceeds the free "s" optimum by exactly K;
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
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .domain import Instance, validate
from .loss import Partition, PiecewiseLoss, cached_partition, piecewise_loss


@dataclass(frozen=True)
class LinearRow:
    name: str
    coeffs: tuple[tuple[str, float], ...]
    sense: str  # "<=", ">=", "=="
    rhs: float

    def evaluate(self, assignment) -> float:
        return sum(c * assignment[v] for v, c in self.coeffs)

    def violation(self, assignment) -> float:
        lhs = self.evaluate(assignment)
        if self.sense == "<=":
            return max(0.0, lhs - self.rhs)
        if self.sense == ">=":
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass(frozen=True)
class IndicatorRow:
    """binary == active_value implies row holds."""
    name: str
    binary: str
    active_value: int
    row: LinearRow

    def violation(self, assignment) -> float:
        if round(assignment[self.binary]) != self.active_value:
            return 0.0
        return self.row.violation(assignment)


@dataclass(frozen=True)
class PiecewiseRule:
    """P_jt = 1 implies H_t = pieces.upper(I_t + demand_shift) and
    B_t = H_t - I_t.

    needs_equality marks rules whose holding/backorder variables carry no
    objective weight, so LP export must encode the equality explicitly
    (segment-selection binaries) instead of relying on minimization.
    """
    name: str
    selector: str
    period: int
    cycle_start: int
    inventory_var: str
    holding_var: str
    backorder_var: str
    demand_shift: float
    pieces: PiecewiseLoss
    needs_equality: bool

    def violation(self, assignment) -> float:
        if round(assignment[self.selector]) != 1:
            return 0.0
        y = assignment[self.inventory_var] + self.demand_shift
        h_target = float(self.pieces.upper(y))
        b_target = h_target - assignment[self.inventory_var]
        return max(abs(assignment[self.holding_var] - h_target),
                   abs(assignment[self.backorder_var] - b_target))


@dataclass
class MilpModel:
    kind: str                  # "s" | "S" | "joint"
    horizon: int
    offset: int                # first covered period of the original instance
    instance: Instance
    variables: dict = field(default_factory=dict)  # name -> (lb, ub)
    binaries: set = field(default_factory=set)
    rows: list = field(default_factory=list)
    indicators: list = field(default_factory=list)
    piecewise: list = field(default_factory=list)
    cuts: list = field(default_factory=list)
    objective: tuple = ()
    objective_constant: float = 0.0
    big_m: float = 0.0
    submodels: tuple = ()
    segment_count: int = 0
    segments: Mapping = field(default_factory=dict)  # (j, t) -> PiecewiseLoss

    def add_var(self, name, lb=-math.inf, ub=math.inf, binary=False):
        self.variables[name] = (lb, ub)
        if binary:
            self.binaries.add(name)

    def fix_var(self, name, value):
        self.variables[name] = (value, value)

    def is_fixed(self, name) -> bool:
        lb, ub = self.variables[name]
        return lb == ub

    def objective_value(self, assignment) -> float:
        return self.objective_constant + sum(
            c * assignment[v] for v, c in self.objective)

    def objective_coefficient(self, name) -> float:
        return sum(c for v, c in self.objective if v == name)


def cumulative_demand(instance: Instance, j: int, t: int) -> tuple[float, float]:
    """Mean and std dev of demand convolved over periods j..t (1-based)."""
    means = instance.means[j - 1:t]
    sds = instance.std_devs[j - 1:t]
    return float(sum(means)), math.sqrt(float(sum(s * s for s in sds)))


def build_segments(instance: Instance, segments: int = 11,
                   strategy: str = "equal-probability",
                   partition: Partition | None = None) -> dict:
    """PiecewiseLoss per (j, t) pair, j <= t, for the convolved demands."""
    validate(instance)
    if partition is None:
        partition, err = cached_partition(segments, strategy)
    else:
        from .loss import approximation_error
        err = approximation_error(partition)
    out = {}
    for t in range(1, instance.horizon + 1):
        for j in range(1, t + 1):
            mu, sd = cumulative_demand(instance, j, t)
            out[(j, t)] = piecewise_loss(partition, mu, sd, error=err)
    return out


def default_big_m(instance: Instance, fixed_i0: float | None = None) -> float:
    total_mean = sum(instance.means)
    total_sd = math.sqrt(sum(s * s for s in instance.std_devs))
    extra = abs(fixed_i0) if fixed_i0 is not None else 0.0
    return total_mean + 6.0 * total_sd + extra


def level_bounds(instance: Instance, big_m: float) -> tuple[float, float]:
    """(lower, upper) bound of every inventory level of a submodel.

    The reorder root can sit K/b below zero (the never-order band), and
    closing levels run a full horizon of demand below the initial one.
    """
    costs = instance.costs
    lower = -(big_m + costs.fixed / costs.penalty + sum(instance.means) + 10.0)
    return lower, big_m + 10.0


def _check_segments(instance: Instance, segments: dict) -> int:
    n_seg = None
    for t in range(1, instance.horizon + 1):
        for j in range(1, t + 1):
            if (j, t) not in segments:
                raise ValueError(f"segments missing for cycle pair (j={j}, t={t})")
            count = segments[(j, t)].segment_count
            n_seg = count if n_seg is None else max(n_seg, count)
    return n_seg or 0


def _add_submodel(model: MilpModel, label: str, segments: dict,
                  first_order: bool, fixed_i0: float | None,
                  objective_from: int) -> list:
    """Emit variables, rows, piecewise rules and cuts for one submodel.

    objective_from: first local period whose K/h/b terms enter the model
    objective (2 for the joint model's no-first-order side).
    """
    inst = model.instance
    T = inst.horizon
    costs = inst.costs
    bound_lo, bound_hi = level_bounds(inst, model.big_m)

    i0 = f"I0_{label}"
    model.add_var(i0, bound_lo, bound_hi)
    if fixed_i0 is not None:
        model.fix_var(i0, fixed_i0)
    for t in range(1, T + 1):
        model.add_var(f"I_{label}_{t}", bound_lo, bound_hi)
        model.add_var(f"H_{label}_{t}", 0.0)
        model.add_var(f"B_{label}_{t}", 0.0)
        model.add_var(f"delta_{label}_{t}", 0.0, 1.0, binary=True)
        for j in range(1, t + 1):
            model.add_var(f"P_{label}_{j}_{t}", 0.0, 1.0, binary=True)
    model.fix_var(f"delta_{label}_1", 1.0 if first_order else 0.0)
    model.fix_var(f"P_{label}_1_1", 1.0)

    obj_terms = []
    for t in range(1, T + 1):
        prev = i0 if t == 1 else f"I_{label}_{t-1}"
        mean_t = inst.means[t - 1]
        # expected order quantity: nonnegative, and zero without an order
        model.rows.append(LinearRow(
            name=f"order_nonneg_{label}_{t}",
            coeffs=((f"I_{label}_{t}", 1.0), (prev, -1.0)),
            sense=">=", rhs=-mean_t))
        model.indicators.append(IndicatorRow(
            name=f"no_order_balance_{label}_{t}",
            binary=f"delta_{label}_{t}", active_value=0,
            row=LinearRow(
                name=f"no_order_balance_{label}_{t}_row",
                coeffs=((f"I_{label}_{t}", 1.0), (prev, -1.0)),
                sense="==", rhs=-mean_t)))
        # exactly one cycle start covers t
        model.rows.append(LinearRow(
            name=f"cycle_assign_{label}_{t}",
            coeffs=tuple((f"P_{label}_{j}_{t}", 1.0) for j in range(1, t + 1)),
            sense="==", rhs=1.0))
        # the most recent cycle start is identified uniquely; period 1
        # counts as a start whether or not an order is placed there
        for j in range(1, t + 1):
            coeffs = [(f"P_{label}_{j}_{t}", 1.0)]
            rhs = 0.0
            if j == 1:
                rhs = 1.0
            else:
                coeffs.append((f"delta_{label}_{j}", -1.0))
            for k in range(j + 1, t + 1):
                coeffs.append((f"delta_{label}_{k}", 1.0))
            model.rows.append(LinearRow(
                name=f"cycle_link_{label}_{j}_{t}",
                coeffs=tuple(coeffs), sense=">=", rhs=rhs))

        in_objective = t >= objective_from
        if in_objective:
            obj_terms.append((f"delta_{label}_{t}", costs.fixed))
            obj_terms.append((f"H_{label}_{t}", costs.holding))
            obj_terms.append((f"B_{label}_{t}", costs.penalty))
        for j in range(1, t + 1):
            pw = segments[(j, t)]
            model.piecewise.append(PiecewiseRule(
                name=f"loss_{label}_{j}_{t}",
                selector=f"P_{label}_{j}_{t}",
                period=t, cycle_start=j,
                inventory_var=f"I_{label}_{t}",
                holding_var=f"H_{label}_{t}",
                backorder_var=f"B_{label}_{t}",
                demand_shift=pw.mean,
                pieces=pw,
                needs_equality=not in_objective))
        _emit_segment_cuts(model, label, t, segments)

    if costs.unit:
        obj_terms.append((i0, -costs.unit))
        obj_terms.append((f"I_{label}_{T}", costs.unit))
        model.objective_constant += costs.unit * sum(inst.means)
    model.objective = tuple(model.objective) + tuple(obj_terms)
    return obj_terms


def _emit_segment_cuts(model: MilpModel, label: str, t: int, segments: dict):
    """Valid lower-bounding rows: for every segment i,
    H_t >= slope_i * I_t + sum_j (slope_i * mu_jt + intercept_i^jt + e_jt) P_jt
    and the same shifted by -I_t for B_t."""
    slopes = np.asarray(segments[(1, t)].slopes)
    n_seg = slopes.size
    per_j = []
    for j in range(1, t + 1):
        pw = segments[(j, t)]
        if pw.segment_count != n_seg:
            raise ValueError(f"segment count mismatch at (j={j}, t={t})")
        per_j.append((j, np.asarray(pw.slopes), pw.segment_intercepts,
                      pw.mean, pw.error_bound))
    for i in range(n_seg):
        h_coeffs = [(f"H_{label}_{t}", 1.0)]
        b_coeffs = [(f"B_{label}_{t}", 1.0)]
        slope_i = per_j[0][1][i]
        h_coeffs.append((f"I_{label}_{t}", -slope_i))
        b_coeffs.append((f"I_{label}_{t}", -(slope_i - 1.0)))
        for j, sl, icpt, mu, err in per_j:
            const = sl[i] * mu + icpt[i] + err
            h_coeffs.append((f"P_{label}_{j}_{t}", -const))
            b_coeffs.append((f"P_{label}_{j}_{t}", -const))
        model.cuts.append(LinearRow(
            name=f"cut_H_{label}_{t}_{i}", coeffs=tuple(h_coeffs),
            sense=">=", rhs=0.0))
        model.cuts.append(LinearRow(
            name=f"cut_B_{label}_{t}_{i}", coeffs=tuple(b_coeffs),
            sense=">=", rhs=0.0))


def build_minlp_s(instance: Instance, segments: dict,
                  initial_inventory: float | None = None) -> MilpModel:
    """No-order-in-period-1 model; free initial level unless fixed."""
    validate(instance)
    n_seg = _check_segments(instance, segments)
    model = MilpModel(kind="s", horizon=instance.horizon, offset=1,
                      instance=instance,
                      big_m=default_big_m(instance, initial_inventory),
                      submodels=("s",), segment_count=n_seg,
                      segments=segments)
    _add_submodel(model, "s", segments, first_order=False,
                  fixed_i0=initial_inventory, objective_from=1)
    return model


def build_minlp_S(instance: Instance, segments: dict) -> MilpModel:
    """Forced-order-in-period-1 model; the free initial level doubles as the
    period-1 order-up-to level via the pin row I0_S = I_S_1 + mean_1."""
    validate(instance)
    n_seg = _check_segments(instance, segments)
    model = MilpModel(kind="S", horizon=instance.horizon, offset=1,
                      instance=instance, big_m=default_big_m(instance),
                      submodels=("S",), segment_count=n_seg,
                      segments=segments)
    _add_submodel(model, "S", segments, first_order=True,
                  fixed_i0=None, objective_from=1)
    model.rows.append(LinearRow(
        name="pin_I0_S",
        coeffs=(("I0_S", 1.0), ("I_S_1", -1.0)),
        sense="==", rhs=instance.means[0]))
    return model


def build_joint(instance: Instance, segments: dict) -> MilpModel:
    """Both submodels, the cost-equality link and the ordering I0_s <= I0_S.

    The objective takes the forced-order side over all periods plus the
    no-order side from period 2; the no-order side's period-1 terms live
    only inside the linked cost expression.
    """
    validate(instance)
    n_seg = _check_segments(instance, segments)
    model = MilpModel(kind="joint", horizon=instance.horizon, offset=1,
                      instance=instance, big_m=default_big_m(instance),
                      submodels=("S", "s"), segment_count=n_seg,
                      segments=segments)
    terms_S = _add_submodel(model, "S", segments, first_order=True,
                            fixed_i0=None, objective_from=1)
    _add_submodel(model, "s", segments, first_order=False,
                  fixed_i0=None, objective_from=2)
    model.rows.append(LinearRow(
        name="pin_I0_S",
        coeffs=(("I0_S", 1.0), ("I_S_1", -1.0)),
        sense="==", rhs=instance.means[0]))

    costs = instance.costs
    model.add_var("C_S")
    model.add_var("G_s")
    # terms_S already carries the unit-cost terms of the forced-order side
    def_cs = [("C_S", 1.0)] + [(v, -c) for v, c in terms_S]
    model.rows.append(LinearRow(
        name="def_C_S", coeffs=tuple(def_cs), sense="==",
        rhs=costs.unit * sum(instance.means)))
    # the linked cost keeps the no-order side's period-1 holding/backorder
    def_gs = [("G_s", 1.0), ("H_s_1", -costs.holding), ("B_s_1", -costs.penalty)]
    for t in range(2, instance.horizon + 1):
        def_gs += [(f"delta_s_{t}", -costs.fixed),
                   (f"H_s_{t}", -costs.holding), (f"B_s_{t}", -costs.penalty)]
    if costs.unit:
        def_gs += [("I0_s", costs.unit), (f"I_s_{instance.horizon}", -costs.unit)]
    model.rows.append(LinearRow(
        name="def_G_s", coeffs=tuple(def_gs), sense="==",
        rhs=costs.unit * sum(instance.means)))
    model.rows.append(LinearRow(
        name="link_cost", coeffs=(("G_s", 1.0), ("C_S", -1.0)),
        sense="==", rhs=0.0))
    model.rows.append(LinearRow(
        name="link_order", coeffs=(("I0_s", 1.0), ("I0_S", -1.0)),
        sense="<=", rhs=0.0))
    return model


def verify_assignment(model: MilpModel, assignment: dict,
                      tol: float = 1e-6) -> list:
    """All violations beyond tol as (name, amount), worst first."""
    bad = []
    for name, (lb, ub) in model.variables.items():
        v = assignment[name]
        over = max(lb - v, v - ub, 0.0)
        if over > tol:
            bad.append((f"bound_{name}", over))
    for name in model.binaries:
        if not model.is_fixed(name):
            frac = abs(assignment[name] - round(assignment[name]))
            if frac > tol:
                bad.append((f"integrality_{name}", frac))
    for row in model.rows + model.cuts:
        v = row.violation(assignment)
        if v > tol:
            bad.append((row.name, v))
    for ind in model.indicators:
        v = ind.violation(assignment)
        if v > tol:
            bad.append((ind.name, v))
    for rule in model.piecewise:
        v = rule.violation(assignment)
        if v > tol:
            bad.append((rule.name, v))
    bad.sort(key=lambda kv: -kv[1])
    return bad
