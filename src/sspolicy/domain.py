"""Core domain types for the single-item stochastic lot-sizing problem.

All quantities are real-valued: the MILP heuristics produce continuous
reorder points / order-up-to-levels, while the dynamic-programming
benchmark discretizes internally on its own grid.

Types are frozen dataclasses and safe to share across workers.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

SCHEMA_VERSION = 1


class ValidationError(ValueError):
    """An instance or policy violates a domain invariant."""


@dataclass(frozen=True)
class CostParameters:
    """Cost structure: fixed ordering cost K, unit cost c, holding h, penalty b.

    K and c are charged per order / per unit ordered; h is charged per unit
    carried to the next period; b per unit short at the end of a period.
    """

    fixed: float        # K >= 0, per order
    unit: float = 0.0   # c >= 0, per unit ordered
    holding: float = 1.0  # h > 0, per unit per period
    penalty: float = 10.0  # b > 0, per unit short per period


@dataclass(frozen=True)
class NormalDemand:
    """Demand for one period: independent normal with given mean and std dev."""

    mean: float
    std_dev: float


@dataclass(frozen=True)
class Instance:
    """A T-period problem: costs, per-period normal demand, initial inventory."""

    costs: CostParameters
    demands: tuple[NormalDemand, ...]
    initial_inventory: float = 0.0
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "demands", tuple(self.demands))

    @property
    def horizon(self) -> int:
        return len(self.demands)

    @property
    def means(self) -> tuple[float, ...]:
        return tuple(d.mean for d in self.demands)

    @property
    def std_devs(self) -> tuple[float, ...]:
        return tuple(d.std_dev for d in self.demands)

    @cached_property
    def demand_totals(self) -> tuple[float, float]:
        """(mean, variance) of the demand over the whole horizon, each
        summed by running_sums: the (1, T) entry of
        model.convolved_demand, its std dev squared."""
        return (running_sums(self.means)[-1],
                running_sums([s * s for s in self.std_devs])[-1])

    def suffix(self, k: int) -> "Instance":
        """Sub-instance over periods k..T (1-based k). Initial inventory is
        kept but is typically irrelevant for suffix solves."""
        if not 1 <= k <= self.horizon:
            raise ValueError(f"suffix start {k} outside 1..{self.horizon}")
        return Instance(
            costs=self.costs,
            demands=self.demands[k - 1:],
            initial_inventory=self.initial_inventory,
            name=f"{self.name}[{k}:]" if self.name else "",
        )


@dataclass(frozen=True)
class PolicyParameters:
    """Per-period (s_t, S_t) pairs: order up to S_t whenever the opening
    inventory level is at or below s_t."""

    reorder_points: tuple[float, ...]
    order_up_to_levels: tuple[float, ...]
    # Optional per-period cost estimate reported by the method that built the
    # policy (e.g. the linked cost of a suffix model); not used in simulation.
    costs: tuple[float, ...] = ()
    # Periods where the producing method flagged an unreliable pair, e.g. a
    # root its search never bracketed (1-based indices).
    flagged_periods: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "reorder_points", tuple(float(x) for x in self.reorder_points))
        object.__setattr__(self, "order_up_to_levels", tuple(float(x) for x in self.order_up_to_levels))
        object.__setattr__(self, "costs", tuple(float(x) for x in self.costs))
        object.__setattr__(self, "flagged_periods", tuple(self.flagged_periods))
        if len(self.reorder_points) != len(self.order_up_to_levels):
            raise ValidationError("reorder_points and order_up_to_levels length mismatch")
        for t, (s, big_s) in enumerate(zip(self.reorder_points, self.order_up_to_levels), start=1):
            # s_t = -inf (never order) is allowed; NaN compares false
            # everywhere, so a NaN s_t would silently never order
            if math.isnan(s):
                raise ValidationError(f"reorder point s_{t} is NaN")
            if not math.isfinite(big_s):
                raise ValidationError(f"order-up-to level S_{t} = {big_s} is not finite")
            if s > big_s + 1e-9:
                raise ValidationError(f"s_{t} = {s} exceeds S_{t} = {big_s}")

    @property
    def horizon(self) -> int:
        return len(self.reorder_points)

    def pair(self, t: int) -> tuple[float, float]:
        """(s_t, S_t) for 1-based period t."""
        return self.reorder_points[t - 1], self.order_up_to_levels[t - 1]


def running_sums(values) -> list:
    """Prefix sums: entry i adds the first i values left to right from 0.0
    (entry 0 is 0.0, the last the total). Every demand total of the package
    is summed this way. Python's sum() of floats did the same before 3.12
    and compensates from 3.12 on, so sum() would make segment data, level
    bounds and LP bytes depend on the interpreter."""
    return list(accumulate(values, initial=0.0))


def round_half_up(x: float) -> int:
    """x rounded to the nearest integer, halves upward."""
    return math.floor(x + 0.5)


def validate(instance: Instance) -> Instance:
    """Check every domain invariant; return the instance unchanged if valid.

    Raises ValidationError naming the first violated invariant. Idempotent.
    """
    c = instance.costs
    if instance.horizon < 1:
        raise ValidationError("empty horizon (T must be >= 1)")
    if not math.isfinite(c.fixed) or c.fixed < 0:
        raise ValidationError(f"negative fixed ordering cost K = {c.fixed}")
    if not math.isfinite(c.unit) or c.unit < 0:
        raise ValidationError(f"negative unit cost c = {c.unit}")
    if not math.isfinite(c.holding) or c.holding <= 0:
        raise ValidationError(f"non-positive holding cost h = {c.holding}")
    if not math.isfinite(c.penalty) or c.penalty <= 0:
        raise ValidationError(f"non-positive penalty cost b = {c.penalty}")
    if c.unit >= c.penalty:
        raise ValidationError(
            f"unit cost c = {c.unit} is not below penalty b = {c.penalty}: "
            "the last period would never order")
    for t, d in enumerate(instance.demands, start=1):
        if not math.isfinite(d.mean) or d.mean < 0:
            raise ValidationError(f"negative mean demand in period {t}: {d.mean}")
        if not math.isfinite(d.std_dev) or d.std_dev < 0:
            raise ValidationError(f"negative std_dev in period {t}: {d.std_dev}")
    if not math.isfinite(instance.initial_inventory):
        raise ValidationError("initial_inventory must be finite")
    return instance


def make_instance(horizon: int, K: float, h: float, b: float, c: float,
                  means, std_devs=None, cv: float | None = None,
                  initial_inventory: float = 0.0, name: str = "") -> Instance:
    """Convenience constructor; std devs may be given directly or via a
    coefficient of variation (std_dev = cv * mean)."""
    means = list(means)
    if len(means) != horizon:
        raise ValidationError(f"expected {horizon} demand means, got {len(means)}")
    if std_devs is None:
        if cv is None:
            raise ValidationError("either std_devs or cv is required")
        std_devs = [cv * m for m in means]
    std_devs = list(std_devs)
    if len(std_devs) != horizon:
        raise ValidationError(f"expected {horizon} std_devs, got {len(std_devs)}")
    inst = Instance(
        costs=CostParameters(fixed=K, unit=c, holding=h, penalty=b),
        demands=tuple(NormalDemand(m, s) for m, s in zip(means, std_devs)),
        initial_inventory=initial_inventory,
        name=name,
    )
    return validate(inst)


# ---------------------------------------------------------------------------
# Instance file schema (JSON): version, horizon, K, c, h, b,
# initial_inventory, demand_means, demand_std_devs.
# ---------------------------------------------------------------------------

def write_instance(instance: Instance, path) -> None:
    """Serialize to the versioned JSON schema with full double precision."""
    validate(instance)
    doc = {
        "version": SCHEMA_VERSION,
        "horizon": instance.horizon,
        "K": instance.costs.fixed,
        "c": instance.costs.unit,
        "h": instance.costs.holding,
        "b": instance.costs.penalty,
        "initial_inventory": instance.initial_inventory,
        "demand_means": list(instance.means),
        "demand_std_devs": list(instance.std_devs),
    }
    if instance.name:
        doc["name"] = instance.name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_instance(path) -> Instance:
    """Parse an instance file; raises ValidationError with field context."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise ValidationError(f"{path}: parse error: empty file")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: parse error at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: parse error: expected a JSON object")
    version = doc.get("version")
    if version != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: schema-version mismatch: got {version!r}, expected {SCHEMA_VERSION}")
    required = ["horizon", "K", "c", "h", "b", "initial_inventory",
                "demand_means", "demand_std_devs"]
    for key in required:
        if key not in doc:
            raise ValidationError(f"{path}: missing field {key!r}")
    try:
        inst = make_instance(
            horizon=int(doc["horizon"]),
            K=float(doc["K"]), c=float(doc["c"]),
            h=float(doc["h"]), b=float(doc["b"]),
            means=[float(x) for x in doc["demand_means"]],
            std_devs=[float(x) for x in doc["demand_std_devs"]],
            initial_inventory=float(doc["initial_inventory"]),
            name=str(doc.get("name", "")),
        )
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return inst
