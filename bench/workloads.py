"""Benchmark workloads: which instances a run takes, and one instance's run.

A run works through blocks of instances until its time budget is spent,
always finishing the block it started. Blocks are balanced so that the
work in a run barely depends on the seed, while the seed still decides
which instances are taken and in which order:

  * gap8 and oracle25 take each pattern three times per block, and the
    three instances of a pattern take every K, b and cv value once (a
    Latin square per pattern);
  * long12 takes two instances per block, in a fixed order whose first
    block is K=1000, b=10, cv=0.2 (the grid's middle values) and K=500,
    b=20, cv=0.1; the seed only orders them and sets the simulation
    seeds. A long12 instance takes 8-35 s, so a run finishes one block,
    and seed-drawn instances would make the seed, not the code, set the
    measured time.

A full pass over all blocks covers every (pattern, K, b, cv) cell of the
workload's grid exactly once.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field

from sspolicy import sdp, simulate, testbed
from sspolicy.domain import make_instance


@dataclass(frozen=True)
class Workload:
    name: str
    horizon: int              # periods per instance
    grid_horizon: int         # testbed grid (8 or 25) for demands and K values
    patterns: tuple
    methods: tuple            # heuristics per instance; empty: oracle only
    replications: int
    per_pattern: int          # instances of each pattern in a block
    seed_picks_cells: bool    # False: one fixed order (see above)
    why: str


WORKLOADS = {
    "gap8": Workload(
        "gap8", 8, 8, testbed.PATTERNS, ("bs", "mp"), 10_000, 3, True,
        "the paper's 8-period gap study; solver and heuristics dominate"),
    # One sinusoid: SIN1's 12 periods span 1.5 cycles of non-stationary
    # demand, and it is the cheapest smooth series at 12 periods.
    "long12": Workload(
        "long12", 12, 25, ("SIN1",), ("bs", "mp"), 10_000, 2, False,
        "12 periods, 16x the enumeration of gap8; solver complexity shows"),
    "oracle25": Workload(
        "oracle25", 25, 25, testbed.PATTERNS, (), 200_000, 3, True,
        "25-period SDP oracle and pricing only; the solver is never called"),
}


def config_for(workload: Workload, seed: int) -> testbed.BenchmarkConfig:
    return testbed.BenchmarkConfig(
        horizon=workload.grid_horizon, patterns=workload.patterns,
        fixed_costs=testbed.DEFAULT_K[workload.grid_horizon],
        methods=workload.methods, segments=11, strategy="minimax",
        replications=workload.replications, seed=seed)


def build_instances(workload: Workload, config) -> dict:
    """Instance per name; long12 takes the first 12 periods of the grid."""
    out = {}
    for inst in testbed.build_instances(config):
        if workload.horizon != config.horizon:
            _, pattern, k, b, cv = inst.name.split("-")
            T = workload.horizon
            inst = make_instance(
                T, K=inst.costs.fixed, h=inst.costs.holding,
                b=inst.costs.penalty, c=inst.costs.unit,
                means=inst.means[:T], std_devs=inst.std_devs[:T],
                initial_inventory=inst.initial_inventory,
                name="-".join((f"h{T}", pattern, k, b, cv)))
        out[inst.name] = inst
    return out


def schedule(workload: Workload, config, seed: int) -> list:
    """Blocks of instance names in run order (see the module docstring)."""
    rng = random.Random(f"{workload.name}-{seed}")
    patterns = list(workload.patterns)
    levels = [list(config.fixed_costs), list(config.penalty_costs),
              list(config.cvs)]
    if any(len(lv) != 3 for lv in levels):
        raise ValueError("the Latin assignment needs 3 values of K, b and cv")
    r = workload.per_pattern
    order = list(range(0, 27, r))
    if workload.seed_picks_cells:
        rng.shuffle(patterns)
        for lv in levels:
            rng.shuffle(lv)
        rng.shuffle(order)
    else:
        levels = [lv[1:2] + lv[:1] + lv[2:] for lv in levels]

    def cell(p: int, m: int) -> tuple:
        # pattern p's m-th cell; m -> cell is one-to-one over 0..26, and
        # three consecutive m (or one m over three consecutive p) differ
        # in every coordinate
        u, j = divmod(m, 3)
        return ((u % 3 + j + p) % 3, (u // 3 + 2 * j + p) % 3, (j + p) % 3)

    blocks = []
    for first in order:
        block = []
        for p, pattern in enumerate(patterns):
            for m in range(first, min(first + r, 27)):
                k, b, c = cell(p, m)
                block.append(testbed.instance_id(
                    pattern, levels[0][k], levels[1][b], levels[2][c],
                    workload.horizon))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


class Capture:
    """What the wrapped testbed calls returned for the current instance."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.policies = {}     # method -> PolicyParameters
        self.policy_s = {}     # method -> wall seconds of the public call
        self.oracle = None     # SdpSolution


@dataclass
class Outcome:
    name: str
    horizon: int
    wall_s: float = 0.0
    attempted: int = 0        # rows: the oracle plus one per method
    failed: int = 0
    errors: list = field(default_factory=list)
    oracle_cost: float = math.nan
    oracle: object = None     # SdpSolution
    policies: dict = field(default_factory=dict)
    policy_s: dict = field(default_factory=dict)
    gaps: dict = field(default_factory=dict)        # method -> gap %
    sim_means: dict = field(default_factory=dict)   # method (or "sdp") -> cost
    speed: float = 1.0        # machine speed around the run, reference = 1

    @property
    def completed(self) -> bool:
        return self.attempted > 0 and self.failed == 0


def run_heuristics(config, instance, capture: Capture) -> Outcome:
    """Oracle, every method and pricing through testbed.run_instance."""
    capture.reset()
    out = Outcome(instance.name, instance.horizon,
                  attempted=1 + len(config.methods))
    start = time.perf_counter()
    try:
        rows = testbed.run_instance(config, instance)
    except Exception as exc:  # a failed oracle fails every row
        out.wall_s = time.perf_counter() - start
        out.failed = out.attempted
        out.errors.append(f"oracle: {type(exc).__name__}: {exc}")
        return out
    out.wall_s = time.perf_counter() - start
    for row in rows:
        if row.status != "ok":
            out.failed += 1
            out.errors.append(f"{row.method}: {row.status}")
            continue
        out.gaps[row.method] = row.gap_pct
        out.sim_means[row.method] = row.sim_mean
        out.oracle_cost = row.oracle_cost
    out.failed += len(config.methods) - len(rows)
    out.oracle = capture.oracle
    if out.oracle is not None:
        out.oracle_cost = out.oracle.expected_cost
    out.policies = dict(capture.policies)
    out.policy_s = dict(capture.policy_s)
    return out


def run_oracle(config, instance) -> Outcome:
    """The SDP oracle, then its own policy priced by simulation."""
    out = Outcome(instance.name, instance.horizon, attempted=1)
    start = time.perf_counter()
    try:
        solution = sdp.solve_sdp(instance)
        sim = simulate.simulate_policy(
            instance, solution.policy, config.replications,
            testbed.instance_seed(config.seed, instance.name))
    except Exception as exc:
        out.wall_s = time.perf_counter() - start
        out.failed = 1
        out.errors.append(f"oracle: {type(exc).__name__}: {exc}")
        return out
    out.wall_s = time.perf_counter() - start
    out.oracle = solution
    out.oracle_cost = solution.expected_cost
    out.sim_means["sdp"] = sim.mean
    return out


def check(outcome: Outcome) -> list:
    """Problems with an instance's outputs; empty when they are sound."""
    problems = []
    policies = dict(outcome.policies)
    if outcome.oracle is not None:
        policies["sdp"] = outcome.oracle.policy
    for label, policy in policies.items():
        if policy.horizon != outcome.horizon:
            problems.append(f"{outcome.name} {label}: policy horizon "
                            f"{policy.horizon} != {outcome.horizon}")
        for t, (s, S) in enumerate(zip(policy.reorder_points,
                                       policy.order_up_to_levels), 1):
            if not s <= S:
                problems.append(f"{outcome.name} {label}: s_{t}={s} > S_{t}={S}")
    values = list(outcome.gaps.values()) + list(outcome.sim_means.values())
    if outcome.attempted > outcome.failed:
        values.append(outcome.oracle_cost)
    for v in values:
        if not math.isfinite(v):
            problems.append(f"{outcome.name}: non-finite result {v}")
    return problems


def digest_record(outcome: Outcome) -> list:
    """Everything the digest covers, floats kept exact by their repr."""
    policies = dict(outcome.policies)
    if outcome.oracle is not None:
        policies["sdp"] = outcome.oracle.policy
    return [outcome.name, outcome.oracle_cost,
            {k: [list(p.reorder_points), list(p.order_up_to_levels)]
             for k, p in sorted(policies.items())},
            dict(sorted(outcome.gaps.items())),
            dict(sorted(outcome.sim_means.items())),
            outcome.failed]


def sdp_work(solution) -> tuple:
    """(grid levels, sum over periods of levels x demand atoms)."""
    levels = solution.grid.size
    cells = 0
    for d in solution.instance.demands:
        atoms, _ = sdp.discretize_demand(d.mean, d.std_dev, solution.grid.step,
                                         solution.demand_truncation)
        cells += levels * atoms.size
    return levels, cells
