"""Policy-computation heuristics.

Both heuristics walk the suffix horizons k..T and extract the period-k
(s_k, S_k) pair from a linearized model:

  * mp_policy answers the joint model per suffix: the forced-order side's
    free initial level is the order-up-to level, the linked no-order side's
    level is the reorder point. No model is solved per suffix: each
    suffix's engine gives its answer (solver.joint_answer), and all T
    answers are written into one stacked model of the instance's suffixes
    and verified at once (solver.check_joint_answers); a violation names
    its suffix and row.
  * bs_policy solves only no-first-order models: the free minimum gives the
    order-up-to level and its cost; a binary search on the fixed initial
    level then finds where the no-order cost exceeds that minimum by
    exactly K.

The solver takes the forced-order side from the no-order free minimum, so
both heuristics get the same S_k and linked cost. Its costs charge the
unit cost from level 0, as the SDP oracle does: the no-order cost at y
includes c y, so S_k minimizes the cost of ordering up to y, and the
linked cost is the SDP's reorder cost, K + G_k(S_k).

Each heuristic reads the instance's segments and cycle costs from one
CycleTable (`cycle_table`). It builds its own unless given one by `table=`.
A caller that runs both heuristics on an instance passes them the same
table, so the segments, cycle costs and per-suffix engines (free minima,
envelopes) are built once; the answers are the same either way. A table
of another instance is rejected, and so is one whose segments were built
from another partition (model.Segments.partition). Each policy logs one
DEBUG record on the `sspolicy.heuristics` logger with the patterns
solved, certified cost_at answers and root fallbacks it added to its
table's engines.

`segments` counts the linear pieces of each piecewise loss, so the
underlying support partition has segments - 1 cells.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .domain import (Instance, PolicyParameters, ValidationError, is_integer,
                     is_number, round_half_up, validate)
from .model import build_segments
from .solver import CycleTable, check_joint_answers, joint_answer

BS_TOLERANCE = 1e-4  # equality band of the binary search
BS_STEP = 0.1        # default bisection step, at every suffix horizon
STRATEGIES = ("equal-probability", "minimax")  # loss.make_partition's

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HeuristicConfig:
    segments: int = 11                 # linear segments = support cells + 1
    strategy: str = "equal-probability"
    bs_step_size: float = BS_STEP

    def __post_init__(self):
        if not is_integer(self.segments) or self.segments < 3:
            raise ValidationError(
                f"need at least 3 linear segments (2 cells), got {self.segments!r}")
        if self.strategy not in STRATEGIES:
            raise ValidationError(f"unknown partition strategy {self.strategy!r}")
        step = self.bs_step_size
        if not is_number(step):
            raise ValidationError(f"bs_step_size must be a number, got {step!r}")
        if not math.isfinite(step):
            raise ValidationError(f"bs_step_size must be finite, got {step!r}")
        if step <= 0:
            raise ValidationError(f"bs_step_size must be positive, got {step!r}")

    @property
    def cells(self) -> int:
        return self.segments - 1

    def lower_bound_for(self, instance: Instance) -> float:
        """A negative integer strictly below any reorder point.

        The root can sit K/(b - c) below the lowest demand-driven level:
        with no demand left it is exactly -K/(b - c), where the cost only
        equals the target, so the bound keeps one more unit below it.
        """
        total_mean, total_var = instance.demand_totals
        total_sd = math.sqrt(total_var)
        reach = (total_mean + 6.0 * total_sd
                 + instance.costs.never_order_depth)
        return -float(math.ceil(reach) + 1)


def cycle_table(instance: Instance, config: HeuristicConfig) -> CycleTable:
    """The instance's segments, built once and read by every suffix."""
    return CycleTable(instance, build_segments(
        instance, segments=config.cells, strategy=config.strategy))


def _table_for(instance: Instance, config: HeuristicConfig,
               table: CycleTable | None) -> CycleTable:
    """`table`, checked against the call, or a new one."""
    if table is None:
        return cycle_table(instance, config)
    if table.instance != instance:
        raise ValidationError(
            f"cycle table of instance {table.instance.name!r} does not match "
            f"instance {instance.name!r}")
    partition = (config.cells, config.strategy)
    if table.segments.partition != partition:
        raise ValidationError(
            f"cycle table partition {table.segments.partition!r} (cells, "
            f"strategy) does not match the config's {partition!r}")
    return table


def _log_work(method: str, instance: Instance, table: CycleTable,
              before: tuple | None) -> None:
    if before is not None:
        nodes, certified, fallbacks = (
            a - b for a, b in zip(table.work(), before))
        log.debug("%s policy of %r: %d patterns solved, %d cost_at answers "
                  "certified, %d root fallbacks", method, instance.name,
                  nodes, certified, fallbacks)


def mp_policy(instance: Instance, config: HeuristicConfig | None = None,
              table: CycleTable | None = None) -> PolicyParameters:
    """Joint-model heuristic: the joint model's answer on every suffix k..T.

    Each suffix's engine gives its order-up-to level, linked cost and
    reorder point; then all T answers are written into one stacked model
    of the instance's suffixes and verified at once (check_joint_answers).
    """
    validate(instance)
    config = config or HeuristicConfig()
    table = _table_for(instance, config, table)
    before = table.work() if log.isEnabledFor(logging.DEBUG) else None
    answers = []
    for k in range(1, instance.horizon + 1):
        try:
            answers.append(joint_answer(table.engine(k)))
        except Exception as exc:
            raise RuntimeError(f"joint solve failed at suffix k={k}: {exc}") from exc
    check_joint_answers(table, answers)
    _log_work("mp", instance, table, before)
    return PolicyParameters(
        reorder_points=tuple(root for _, root, _ in answers),
        order_up_to_levels=tuple(forced[2][0] for forced, _, _ in answers),
        costs=tuple(forced[0] for forced, _, _ in answers))


def bs_policy(instance: Instance, config: HeuristicConfig | None = None,
              table: CycleTable | None = None) -> PolicyParameters:
    """Binary-search heuristic over no-first-order models.

    Per suffix: minimize with a free initial level to get the order-up-to
    level S_k and its cost; then bisect the fixed initial level, on the
    integers and below them on steps of config.bs_step_size (the same at
    every suffix horizon), until the cost exceeds the minimum by K within
    the BS_TOLERANCE band.
    Brackets that empty without hitting the band return their midpoint, a
    step from the root. A period is flagged only when no evaluated level
    cost more than the target, so the lower bound never bracketed the root.
    No MilpModel is built: the engine reads the instance's cycle table.
    """
    validate(instance)
    config = config or HeuristicConfig()
    table = _table_for(instance, config, table)
    before = table.work() if log.isEnabledFor(logging.DEBUG) else None
    ss, SS, costs, flagged = [], [], [], []
    K = instance.costs.fixed
    step = config.bs_step_size
    for k in range(1, instance.horizon + 1):
        try:
            engine = table.engine(k)
            cost_up, _, y_levels = engine.free_minimum()
        except Exception as exc:
            raise RuntimeError(f"suffix solve failed at k={k}: {exc}") from exc
        s_up = float(y_levels[0])
        target = cost_up + K
        SS.append(s_up)
        costs.append(target)
        if K <= BS_TOLERANCE:
            ss.append(s_up)
            continue

        low = config.lower_bound_for(instance.suffix(k))
        high = s_up
        found = None
        bracketed = False  # some evaluated level costs more than the target
        while low < high:
            span = high - low
            if span >= 2.0:
                mid = low + round_half_up(span / 2.0)
            else:
                # below the integer lattice, halve on the step lattice so
                # the bracket keeps shrinking geometrically
                mid = low + max(1, round(span / (2.0 * step))) * step
            mid = min(max(mid, low), high)
            gap = engine.cost_at(mid)[0] - target
            if abs(gap) <= BS_TOLERANCE:
                found = mid
                break
            if gap > BS_TOLERANCE:
                low = mid + step
                bracketed = True
            else:
                high = mid - step
        if found is None:
            # the bracket emptied without entering the tolerance band: with a
            # level above the target on its low side, its midpoint is within
            # a step of the root; without one, the root was never bracketed
            found = 0.5 * (low + high)
            if not bracketed:
                flagged.append(k)
        ss.append(min(found, s_up))
    _log_work("bs", instance, table, before)
    return PolicyParameters(reorder_points=tuple(ss),
                            order_up_to_levels=tuple(SS),
                            costs=tuple(costs),
                            flagged_periods=tuple(flagged))


def write_policy_csv(policy: PolicyParameters, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,s_t,S_t,linked_cost\n")
        for t in range(1, policy.horizon + 1):
            s, big_s = policy.pair(t)
            cost = policy.costs[t - 1] if policy.costs else math.nan
            fh.write(f"{t},{s!r},{big_s!r},{cost!r}\n")


def read_policy_csv(path) -> PolicyParameters:
    """A write_policy_csv file's policy; ValidationError if malformed."""
    ss, SS, costs = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if not header.startswith("t,s_t,S_t"):
            raise ValidationError(f"{path}: unexpected policy CSV header {header!r}")
        for line in fh:
            if not line.strip():
                continue
            parts = line.strip().split(",")
            if len(parts) < 3:
                raise ValidationError(f"{path}: malformed policy row {line!r}")
            # rows are read by position, so t must count 1, 2, ..., T
            if parts[0].strip() != str(len(ss) + 1):
                raise ValidationError(f"{path}: policy row {line!r} should have "
                                      f"t = {len(ss) + 1}, got {parts[0]!r}")
            try:
                ss.append(float(parts[1]))
                SS.append(float(parts[2]))
                if len(parts) > 3 and parts[3] not in ("", "nan"):
                    costs.append(float(parts[3]))
            except ValueError as exc:
                raise ValidationError(
                    f"{path}: non-numeric field in policy row {line!r}") from exc
    return PolicyParameters(reorder_points=tuple(ss),
                            order_up_to_levels=tuple(SS),
                            costs=tuple(costs) if len(costs) == len(ss) else ())
