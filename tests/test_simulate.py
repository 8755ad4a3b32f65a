import dataclasses
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from oracle_support import row_major_simulation
from sspolicy.domain import PolicyParameters, ValidationError, make_instance
from sspolicy.sdp import solve_sdp
from sspolicy.simulate import (
    estimate_gap, estimate_gaps, simulate_policies, simulate_policy,
)
from sspolicy.testbed import BenchmarkConfig, build_instances, instance_seed


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def sdp4(example4):
    return solve_sdp(example4)


def test_zero_variance_exact_cost():
    """Deterministic demand, policy covering it: pure arithmetic, SE = 0."""
    inst = make_instance(horizon=2, K=50, h=1, b=10, c=2,
                         means=[5, 7], std_devs=[0, 0])
    policy = PolicyParameters(reorder_points=(0.0, 6.0),
                              order_up_to_levels=(12.0, 7.0))
    # order 12 (K + 2*12), hold 7 after demand 5; at 7 <= s_2=6? no: 7 > 6,
    # so no second order; demand 7 leaves 0: no holding, no penalty
    sim = simulate_policy(inst, policy, replications=500, seed=1)
    assert sim.mean == pytest.approx(50 + 24 + 7 * 1, abs=1e-12)
    assert sim.standard_error == 0.0
    assert sim.truncation_frequency == 0.0


def test_reproducible_bit_for_bit(example4, sdp4):
    a = simulate_policy(example4, sdp4.policy, 20000, seed=42)
    b = simulate_policy(example4, sdp4.policy, 20000, seed=42)
    assert a == b


def test_chunking_does_not_change_result(example4, sdp4):
    a = simulate_policy(example4, sdp4.policy, 30000, seed=5, chunk_size=30000)
    b = simulate_policy(example4, sdp4.policy, 30000, seed=5, chunk_size=997)
    assert a == b


def test_different_seeds_differ(example4, sdp4):
    a = simulate_policy(example4, sdp4.policy, 10000, seed=1)
    b = simulate_policy(example4, sdp4.policy, 10000, seed=2)
    assert a.mean != b.mean


def test_sdp_policy_matches_value_function(example4, sdp4):
    """The simulated optimal policy reproduces C_1(I_0) within 3 SE at a
    million replications."""
    sim = simulate_policy(example4, sdp4.policy, replications=10**6, seed=7)
    assert abs(sim.mean - sdp4.expected_cost) <= 3 * sim.standard_error
    assert sim.standard_error < 0.2


def test_published_policy_within_two_percent(example4, sdp4):
    policy = PolicyParameters((15, 29.01, 58.1, 29.01),
                              (70.2658, 53.9768, 116.553, 53.9768))
    sim = simulate_policy(example4, policy, replications=10**6, seed=7)
    assert abs(sim.mean - 362.5839) / 362.5839 < 0.02


def test_single_replication_flagged(example4, sdp4):
    sim = simulate_policy(example4, sdp4.policy, replications=1, seed=3)
    assert sim.standard_error == 0.0
    assert sim.se_degenerate


def test_policy_length_mismatch(example4):
    short = PolicyParameters((1.0,), (2.0,))
    with pytest.raises(ValueError, match="horizon"):
        simulate_policy(example4, short, 10, seed=0)


def test_chunk_size_must_be_positive(example4, sdp4):
    with pytest.raises(ValueError, match="chunk_size"):
        simulate_policy(example4, sdp4.policy, 10, seed=0, chunk_size=0)


@pytest.mark.parametrize("value", [10.0, True, "10", None])
def test_replications_must_be_an_integer(example4, sdp4, value):
    with pytest.raises(ValidationError, match="replications must be an integer"):
        simulate_policy(example4, sdp4.policy, value, seed=1)


@pytest.mark.parametrize("value", [8.0, True, 2.5])
def test_chunk_size_must_be_an_integer(example4, sdp4, value):
    with pytest.raises(ValueError, match="chunk_size must be an integer"):
        simulate_policy(example4, sdp4.policy, 10, seed=1, chunk_size=value)


def test_numpy_integer_counts_accepted(example4, sdp4):
    assert simulate_policy(example4, sdp4.policy, np.int64(500), seed=4,
                           chunk_size=np.int32(97)) == \
        simulate_policy(example4, sdp4.policy, 500, seed=4, chunk_size=97)


def test_truncation_frequency_small_for_moderate_cv():
    inst = make_instance(horizon=8, K=200, h=1, b=10, c=0,
                         means=[10] * 8, cv=0.3)
    policy = PolicyParameters((5.0,) * 8, (30.0,) * 8)
    sim = simulate_policy(inst, policy, 50000, seed=9)
    assert sim.truncation_frequency < 0.01


def _draw_policy(draw, inst):
    """An arbitrary policy for `inst`: never-order periods (s_t = -inf)
    and, at random, an opening level equal to s_1."""
    T = inst.horizon
    big_ss = draw(st.lists(st.floats(-20, 90).map(lambda v: round(v, 2)),
                           min_size=T, max_size=T))
    gaps = draw(st.lists(st.one_of(st.just(math.inf),
                                   st.floats(0, 60).map(lambda v: round(v, 2))),
                         min_size=T, max_size=T))
    ss = [S - g for S, g in zip(big_ss, gaps)]
    if draw(st.booleans()):
        # the opening level sits exactly on s_1: at or below means order
        ss[0] = inst.initial_inventory
        big_ss[0] = max(big_ss[0], ss[0])
    return PolicyParameters(tuple(ss), tuple(big_ss))


@st.composite
def _simulation_cases(draw):
    """Small instances with arbitrary policies: T = 1-9, K = 0, c > 0,
    zero-sd and zero-mean periods, negative and positive initial
    inventory, never-order periods (s_t = -inf), an opening level equal to
    s_1, 1-3000 replications (at most 300 in chunks of 1, which price one
    replication per block) and chunk sizes 1, 7, 997 and the default."""
    T = draw(st.integers(1, 9))
    means = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0, 40).map(lambda v: round(v, 1))),
        min_size=T, max_size=T))
    cvs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.0]),
                        min_size=T, max_size=T))
    inst = make_instance(
        horizon=T, K=draw(st.sampled_from([0.0, 40.0, 150.0])),
        h=draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2))),
        b=draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2))),
        c=draw(st.sampled_from([0.0, 1.5])), means=means,
        std_devs=[m * v for m, v in zip(means, cvs)],
        initial_inventory=draw(st.sampled_from([0.0, -12.5, 7.25, 60.0])))
    policy = _draw_policy(draw, inst)
    chunk_size = draw(st.sampled_from([1, 7, 997, None]))
    replications = draw(st.integers(1, 300 if chunk_size == 1 else 3000))
    return inst, policy, replications, draw(st.integers(0, 2**32)), chunk_size


class TestRowMajorReference:
    @settings(max_examples=80, deadline=None)
    @given(case=_simulation_cases())
    def test_matches_row_major_simulation(self, case):
        """Every field of the result is bit-equal to the replication-major
        loop's, whatever the chunk size."""
        inst, policy, reps, seed, chunk_size = case
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        got = simulate_policy(inst, policy, reps, seed, **kwargs)
        ref = row_major_simulation(inst, policy, reps, seed, 65536)
        assert dataclasses.astuple(got) == dataclasses.astuple(ref)


@st.composite
def _policy_list_cases(draw):
    """_simulation_cases with one to three policies of the instance, where
    each later one repeats the first or is drawn anew."""
    inst, policy, reps, seed, chunk_size = draw(_simulation_cases())
    policies = [policy]
    for _ in range(draw(st.integers(0, 2))):
        policies.append(policy if draw(st.booleans())
                        else _draw_policy(draw, inst))
    return inst, policies, reps, seed, chunk_size


class TestSharedDemandBlocks:
    """simulate_policies prices every policy on one draw of each block."""

    @settings(max_examples=60, deadline=None)
    @given(case=_policy_list_cases())
    def test_each_result_is_its_policy_priced_alone(self, case):
        inst, policies, reps, seed, chunk_size = case
        kwargs = {} if chunk_size is None else {"chunk_size": chunk_size}
        got = simulate_policies(inst, policies, reps, seed, **kwargs)
        assert len(got) == len(policies)
        for policy, result in zip(policies, got):
            alone = simulate_policy(inst, policy, reps, seed, **kwargs)
            ref = row_major_simulation(inst, policy, reps, seed, 65536)
            assert dataclasses.astuple(result) == dataclasses.astuple(alone)
            assert dataclasses.astuple(result) == dataclasses.astuple(ref)

    def test_repeated_policy_and_partial_last_block(self):
        """The same policy twice between two others, with a zero-sd period,
        a negative opening level and 1001 replications in blocks of 97."""
        inst = make_instance(horizon=3, K=60, h=1, b=8, c=0.5,
                             means=[12, 0, 9], std_devs=[4, 0, 3],
                             initial_inventory=-12.5)
        p = PolicyParameters((-5.0, 1.0, 3.0), (30.0, 14.0, 20.0))
        q = PolicyParameters((4.0, -math.inf, 0.0), (25.0, 10.0, 12.0))
        policies = [p, q, q, p]
        got = simulate_policies(inst, policies, 1001, 17, chunk_size=97)
        assert got[1] == got[2] and got[0] == got[3] and got[0] != got[1]
        for policy, result in zip(policies, got):
            assert result == simulate_policy(inst, policy, 1001, 17)
            assert dataclasses.astuple(result) == dataclasses.astuple(
                row_major_simulation(inst, policy, 1001, 17, 65536))

    @pytest.mark.parametrize("policies, message", [
        ([], "need at least one policy"),
        ([None, PolicyParameters((1.0,), (2.0,))],
         "policy horizon 1 does not match instance horizon 4 (policy 1)"),
    ], ids=["empty", "wrong-horizon"])
    def test_bad_policy_list_rejected_before_any_draw(self, example4, sdp4,
                                                      monkeypatch, policies,
                                                      message):
        policies = [sdp4.policy if p is None else p for p in policies]

        def no_draws(*args, **kwargs):
            raise AssertionError("demands drawn")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        with pytest.raises(ValidationError, match=re.escape(message)):
            simulate_policies(example4, policies, 100, seed=3)

    def test_gaps_share_the_block(self, example4, sdp4):
        good = PolicyParameters((15, 29.01, 58.1, 29.01),
                                (70.2658, 53.9768, 116.553, 53.9768))
        policies = [sdp4.policy, good]
        gaps = estimate_gaps(example4, policies, sdp4.expected_cost, 3000, 13)
        assert gaps == [estimate_gap(example4, p, sdp4.expected_cost, 3000, 13)
                        for p in policies]


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="pricing 270 SDP policies twice at up to 200k "
                           "replications takes minutes; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon, replications", [(8, 10_000), (25, 200_000)],
                         ids=["8-period", "25-period"])
def test_full_grid_matches_reference(horizon, replications):
    """Every grid instance's SDP policy, priced at the benchmark's
    replication count, is bit-equal to the replication-major loop."""
    config = BenchmarkConfig(horizon=horizon)
    for inst in build_instances(config):
        policy = solve_sdp(inst).policy
        seed = instance_seed(config.seed, inst.name)
        got = simulate_policy(inst, policy, replications, seed)
        ref = row_major_simulation(inst, policy, replications, seed, 65536)
        assert dataclasses.astuple(got) == dataclasses.astuple(ref), inst.name


class TestGap:
    def test_self_gap_near_zero(self, example4, sdp4):
        gap = estimate_gap(example4, sdp4.policy, sdp4.expected_cost,
                           100000, seed=13)
        assert abs(gap.gap_pct) <= 3 * gap.se_pct

    def test_published_policy_small_gap(self, example4, sdp4):
        policy = PolicyParameters((15, 29.01, 58.1, 29.01),
                                  (70.2658, 53.9768, 116.553, 53.9768))
        gap = estimate_gap(example4, policy, sdp4.expected_cost, 200000, seed=13)
        assert gap.gap_pct <= 2.0

    def test_degraded_policy_dominated(self, example4, sdp4):
        good = PolicyParameters((15, 29.01, 58.1, 29.01),
                                (70.2658, 53.9768, 116.553, 53.9768))
        bad = PolicyParameters(
            tuple(s - 1 for s in sdp4.policy.order_up_to_levels),
            sdp4.policy.order_up_to_levels)
        g_good = estimate_gap(example4, good, sdp4.expected_cost, 100000, seed=13)
        g_bad = estimate_gap(example4, bad, sdp4.expected_cost, 100000, seed=13)
        assert g_bad.gap_pct > g_good.gap_pct

    def test_invalid_oracle_cost(self, example4, sdp4):
        with pytest.raises(ValueError, match="oracle cost"):
            estimate_gap(example4, sdp4.policy, 0.0, 10, seed=0)
