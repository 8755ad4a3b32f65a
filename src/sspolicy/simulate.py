"""Monte Carlo evaluation of (s, S) policies.

Per replication and period: order up to S_t when the opening level is at or
below s_t (paying K plus the unit cost of the order), draw the demand,
charge holding on leftover stock and penalty on the shortfall, and carry
the (possibly negative) net inventory forward.

Randomness is counter-based: replication r reads a dedicated counter range
of a Philox stream keyed by the seed (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC'11), and demands come from inverse-CDF
normals, so one uniform per (replication, period). Results are therefore
bit-identical however the replications are chunked or distributed.
Negative demand draws are truncated to zero and the truncation frequency
is reported.

Replications are priced in blocks of at most chunk_size. Each block's
demands fill a preallocated period-major (T, chunk_size) array in place,
so period t's draws are one contiguous row, and the period loop updates
the block's levels and costs in place with two scratch vectors. Transient
memory is therefore bounded by a few chunk_size × T arrays (the demand
block, 1.6 MB at the default 8192 and T = 25, and the raw Philox words for
it), which stay in a core's L2 cache, plus one cost per replication.

A call with more than one block of replications is split into equal
contiguous spans, one per usable CPU (os.sched_getaffinity) up to one per
block. The calling thread prices the first span and a per-call thread
pool the others, each into its own columns of the one cost array the
single-span loop fills, so every result is bit-equal to pricing in one
span. Philox, ndtri and the array passes release the interpreter lock for
most of their run, so the spans run side by side. A span's exception
propagates as itself, once every span has finished. Inside a
multiprocessing worker (run_benchmark with jobs > 1, which already uses
the cores) a call prices in one span.

simulate_policies prices several policies of one instance on the same
seed: each block's demands are drawn once and every policy's period loop
reads them, so each result is bit-equal to pricing that policy alone
(simulate_policy is the one-policy case), and the draws cost what one
policy's do.
"""
from __future__ import annotations

import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral

import numpy as np
from scipy.special import ndtri

from .domain import Instance, PolicyParameters, ValidationError, validate

_U64_11 = np.uint64(11)
_INV_2_53 = 2.0 ** -53
_MIN_UNIFORM = 2.0 ** -53  # guards ndtri(0) = -inf


@dataclass(frozen=True)
class SimulationResult:
    mean: float
    standard_error: float
    replications: int
    seed: int
    truncation_frequency: float

    @property
    def se_degenerate(self) -> bool:
        """True when a standard error cannot be estimated (one replication)."""
        return self.replications < 2


@dataclass(frozen=True)
class GapEstimate:
    gap_pct: float
    se_pct: float
    simulation: SimulationResult
    oracle_cost: float


def _is_count(value) -> bool:
    return isinstance(value, Integral) and not isinstance(value, bool)


def simulate_policy(instance: Instance, policy: PolicyParameters,
                    replications: int, seed: int,
                    chunk_size: int = 8192) -> SimulationResult:
    """Mean total cost and its standard error under the given policy."""
    return simulate_policies(instance, [policy], replications, seed,
                             chunk_size)[0]


def simulate_policies(instance: Instance, policies, replications: int,
                      seed: int, chunk_size: int = 8192) -> list:
    """simulate_policy of every policy, in order, from one draw of each
    demand block."""
    validate(instance)
    if not _is_count(replications):
        raise ValidationError(
            f"replications must be an integer, got {replications!r}")
    if replications < 1:
        raise ValidationError(
            f"need at least one replication, got {replications}")
    if not _is_count(chunk_size):
        raise ValueError(f"chunk_size must be an integer, got {chunk_size!r}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be at least 1, got {chunk_size}")
    replications, chunk_size = int(replications), int(chunk_size)
    policies = list(policies)
    if not policies:
        raise ValidationError("need at least one policy to price")
    for i, policy in enumerate(policies):
        if policy.horizon != instance.horizon:
            which = f" (policy {i})" if len(policies) > 1 else ""
            raise ValidationError(
                f"policy horizon {policy.horizon} does not match instance "
                f"horizon {instance.horizon}{which}")

    # one cost per policy and replication, reduced once at the end so the
    # statistics do not depend on how the work was chunked or split
    all_costs = np.empty((len(policies), replications))
    truncated = _price_spans(instance, policies, seed, chunk_size, all_costs)
    frequency = truncated / (replications * instance.horizon)
    return [_result(policy_costs, seed, frequency) for policy_costs in all_costs]


def _price_spans(instance: Instance, policies: list, seed: int,
                 chunk_size: int, out: np.ndarray) -> int:
    """_price_span over every column of `out`: the first span on this
    thread, each further span on a pool thread."""
    replications = out.shape[1]
    spans = min(_usable_cpus(), -(-replications // chunk_size))
    if spans < 2 or multiprocessing.parent_process() is not None:
        return _price_span(instance, policies, seed, 0, chunk_size, out)
    bounds = [replications * i // spans for i in range(spans + 1)]
    with ThreadPoolExecutor(spans - 1) as pool:
        rest = [pool.submit(_price_span, instance, policies, seed, lo,
                            chunk_size, out[:, lo:hi])
                for lo, hi in zip(bounds[1:], bounds[2:])]
        truncated = _price_span(instance, policies, seed, 0, chunk_size,
                                out[:, :bounds[1]])
        return truncated + sum(span.result() for span in rest)


def _price_span(instance: Instance, policies: list, seed: int, start: int,
                chunk_size: int, out: np.ndarray) -> int:
    """Price replications start, start + 1, ... into the columns of `out`,
    one row per policy; returns how many demand draws were truncated."""
    T = instance.horizon
    costs = instance.costs
    K, c, h, b = costs.fixed, costs.unit, costs.holding, costs.penalty
    means = np.asarray(instance.means, dtype=float)[:, None]
    sds = np.asarray(instance.std_devs, dtype=float)[:, None]
    # each replication owns ceil(T / 4) Philox counter blocks, so chunk
    # and span boundaries never change the draws
    blocks_per_rep = (T + 3) // 4
    key = np.random.SeedSequence(seed).generate_state(2, np.uint64)

    count = out.shape[1]
    width = min(chunk_size, count)
    demand_block = np.empty((T, width))
    level_block = np.empty(width)
    scratch_block = np.empty(width)
    shortage_block = np.empty(width)
    ordering_block = np.empty(width, dtype=bool)
    truncated = 0
    done = 0
    while done < count:
        n = min(chunk_size, count - done)
        counter = np.zeros(4, dtype=np.uint64)
        counter[0] = np.uint64((start + done) * blocks_per_rep)
        raw = np.random.Philox(key=key, counter=counter).random_raw(
            4 * blocks_per_rep * n).reshape(n, 4 * blocks_per_rep)
        raw >>= _U64_11
        # period-major demands: row t holds period t's draws
        demands = demand_block[:, :n]
        np.multiply(raw[:, :T].T, _INV_2_53, out=demands)
        np.maximum(demands, _MIN_UNIFORM, out=demands)
        ndtri(demands, out=demands)
        demands *= sds
        demands += means
        truncated += int(np.count_nonzero(demands < 0.0))
        np.maximum(demands, 0.0, out=demands)

        level = level_block[:n]
        scratch = scratch_block[:n]
        shortage = shortage_block[:n]
        ordering = ordering_block[:n]
        for policy, policy_costs in zip(policies, out):
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
                    # unmasked add, masked store: the ordering entries get
                    # cost + scratch's bits, and a masked ufunc is slower
                    scratch += cost
                    np.putmask(cost, ordering, scratch)
                    np.putmask(level, ordering, big_ss[t])
                level -= demands[t]
                # holding or shortage in one charge: of h*max(l, 0) and
                # b*max(-l, 0) one is ±0 and the other equals the larger
                # of h*l and (-b)*l, so the cost gets the same bits
                np.multiply(level, h, out=scratch)
                np.multiply(level, -b, out=shortage)
                np.maximum(scratch, shortage, out=scratch)
                cost += scratch
        done += n
    return truncated


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _result(costs: np.ndarray, seed: int, truncation: float) -> SimulationResult:
    """The statistics of one policy's replication costs."""
    replications = costs.size
    mean = float(costs.mean())
    if replications > 1:
        se = float(costs.std(ddof=1)) / math.sqrt(replications)
    else:
        se = 0.0
    return SimulationResult(mean=mean, standard_error=se,
                            replications=replications, seed=seed,
                            truncation_frequency=truncation)


def estimate_gap(instance: Instance, policy: PolicyParameters,
                 oracle_cost: float, replications: int, seed: int) -> GapEstimate:
    """Percentage excess of the simulated policy cost over the oracle cost."""
    return estimate_gaps(instance, [policy], oracle_cost, replications, seed)[0]


def estimate_gaps(instance: Instance, policies, oracle_cost: float,
                  replications: int, seed: int) -> list:
    """estimate_gap of every policy, in order, priced by simulate_policies."""
    if oracle_cost <= 0:
        raise ValueError(f"oracle cost must be positive, got {oracle_cost}")
    return [GapEstimate(gap_pct=100.0 * (sim.mean - oracle_cost) / oracle_cost,
                        se_pct=100.0 * sim.standard_error / oracle_cost,
                        simulation=sim, oracle_cost=oracle_cost)
            for sim in simulate_policies(instance, policies, replications, seed)]
