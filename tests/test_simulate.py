import dataclasses
import math
import multiprocessing
import os
import re
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np
from oracle_support import row_major_simulation, separate_charge_costs
from sspolicy import simulate
from sspolicy.domain import PolicyParameters, ValidationError, make_instance
from sspolicy.sdp import solve_sdp
from sspolicy.simulate import (
    estimate_gap, estimate_gaps, simulate_policies, simulate_policy,
)
from sspolicy.testbed import (
    BenchmarkConfig, build_instances, instance_seed, run_benchmark,
)


@pytest.fixture(autouse=True)
def nothing_left_running():
    """Fail a test that leaves a thread or a child process behind."""
    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    yield
    assert set(threading.enumerate()) <= threads
    assert set(multiprocessing.active_children()) <= children


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


@pytest.mark.parametrize("value", [-1, True, 1.5, "7", None])
def test_seed_must_be_a_non_negative_integer(example4, sdp4, value):
    with pytest.raises(ValidationError,
                       match=re.escape(f"seed must be a non-negative integer, got {value!r}")):
        simulate_policy(example4, sdp4.policy, 10, seed=value)


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
@pytest.mark.parametrize("horizon, replications, chunk_size",
                         [(8, 10_000, 4096), (25, 200_000, 8192)],
                         ids=["8-period", "25-period"])
def test_full_grid_matches_reference(horizon, replications, chunk_size):
    """Every grid instance's SDP policy, priced at the benchmark's
    replication count and split as on three CPUs whatever the runner has
    (two spans at 10k in blocks of 4096, as the default 8192 makes one
    full block and so one span; three at 200k in the default blocks), is
    bit-equal to the replication-major loop."""
    config = BenchmarkConfig(horizon=horizon)
    for inst in build_instances(config):
        policy = solve_sdp(inst).policy
        seed = instance_seed(config.seed, inst.name)
        with mock.patch.object(simulate, "_usable_cpus", lambda: 3):
            got = simulate_policy(inst, policy, replications, seed,
                                  chunk_size=chunk_size)
        ref = row_major_simulation(inst, policy, replications, seed, 65536)
        assert dataclasses.astuple(got) == dataclasses.astuple(ref), inst.name


@st.composite
def _charge_cases(draw):
    """Instances and policies for the period loop alone: h = 0 (which
    validate rejects, so only the loop sees it), K = 0, c > 0, negative
    and signed-zero opening levels, zero-sd periods with whole means and
    order-up-to levels of 0, -0 and whole numbers, so that levels of
    exactly +0 and -0 occur."""
    T = draw(st.integers(1, 6))
    means = draw(st.lists(st.sampled_from([0.0, 5.0, 10.0, 12.5]),
                          min_size=T, max_size=T))
    cvs = draw(st.lists(st.sampled_from([0.0, 0.0, 0.3, 1.0]),
                        min_size=T, max_size=T))
    inst = make_instance(
        horizon=T, K=draw(st.sampled_from([0.0, 40.0])), h=1.0,
        b=draw(st.sampled_from([2.0, 7.5])),
        c=draw(st.sampled_from([0.0, 1.5])), means=means,
        std_devs=[m * v for m, v in zip(means, cvs)],
        initial_inventory=draw(st.sampled_from([0.0, -0.0, -12.5, 10.0])))
    h = draw(st.sampled_from([0.0, 0.5, 1.25]))
    inst = dataclasses.replace(
        inst, costs=dataclasses.replace(inst.costs, holding=h))
    policies = []
    for _ in range(draw(st.integers(1, 3))):
        big_ss = draw(st.lists(st.sampled_from([-0.0, 0.0, 5.0, 10.0, 22.5]),
                               min_size=T, max_size=T))
        gaps = draw(st.lists(st.sampled_from([0.0, 5.0, math.inf]),
                             min_size=T, max_size=T))
        policies.append(PolicyParameters(
            tuple(S - g for S, g in zip(big_ss, gaps)), tuple(big_ss)))
    start = draw(st.integers(0, 10**6))
    count = draw(st.integers(1, 400))
    return inst, policies, draw(st.integers(0, 2**32)), start, count, \
        draw(st.sampled_from([1, 7, 512]))


class TestFusedCharge:
    """The period loop charges holding or shortage as one max; every
    replication's cost has the bits of charging them one at a time."""

    @settings(max_examples=80, deadline=None)
    @given(case=_charge_cases())
    def test_matches_separate_charges(self, case):
        inst, policies, seed, start, count, chunk_size = case
        got = np.empty((len(policies), count))
        truncated = simulate._price_span(inst, policies, seed, start,
                                         chunk_size, got)
        ref, ref_truncated = separate_charge_costs(inst, policies, seed,
                                                   start, count, chunk_size)
        assert got.tobytes() == ref.tobytes()
        assert truncated == ref_truncated

    def test_signed_zero_levels(self):
        """Levels of exactly -0 and +0 in every period."""
        inst = make_instance(horizon=3, K=0, h=1, b=4, c=0,
                             means=[0, 10, 0], std_devs=[0, 0, 0],
                             initial_inventory=-0.0)
        policies = [PolicyParameters((-math.inf,) * 3, (0.0,) * 3),
                    PolicyParameters((-0.0, 0.0, -math.inf), (-0.0, 10.0, 0.0))]
        got = np.empty((2, 5))
        simulate._price_span(inst, policies, 3, 0, 2, got)
        ref, _ = separate_charge_costs(inst, policies, 3, 0, 5, 2)
        assert got.tobytes() == ref.tobytes()


def _bits(result):
    return [v.hex() if isinstance(v, float) else v
            for v in dataclasses.astuple(result)]


def _hex_policy(reorder_points, order_up_to_levels):
    return PolicyParameters(
        [float.fromhex(v) for v in reorder_points.split()],
        [float.fromhex(v) for v in order_up_to_levels.split()])


def _golden_grid8():
    """h8-EMP1-K300-b10-cv0.3's bs, mp and SDP policies, as the
    heuristics and solve_sdp gave them, priced on shared blocks."""
    [inst] = build_instances(BenchmarkConfig(
        patterns=("EMP1",), fixed_costs=(300.0,), penalty_costs=(10.0,),
        cvs=(0.3,)))
    levels = ("0x1.97a07f992f42bp+5 0x1.3ee68dfb2997dp+7 0x1.298c3a651ad04p+7 "
              "0x1.f185b6155d2ddp+6 0x1.343b4288840aep+6 0x1.af3556e29f4fcp+5 "
              "0x1.370b60fab89ccp+5 0x1.c7f4efd91ecbep+3")
    bs = _hex_policy(
        "-0x1.9333333333337p+2 -0x1.33333333333a2p-2 0x1.97ffffffffffcp+3 "
        "0x1.1333333333334p+5 0x1.2800000000001p+4 0x1.6800000000000p+3 "
        "0x1.519999999999ap+3 -0x1.48ccccccccccdp+4", levels)
    mp = _hex_policy(
        "-0x1.958f3f0d9865dp+2 -0x1.b809a1ba79460p-3 0x1.96e78a671b9d0p+3 "
        "0x1.12c2573d495f7p+5 0x1.279c161895ccap+4 0x1.66af425538fd8p+3 "
        "0x1.5101afec695c2p+3 -0x1.486c1e0807cb8p+4", levels)
    sdp = PolicyParameters((-8, 0, 13, 35, 18, 11, 10, -21),
                           (52, 155, 144, 122, 77, 53, 39, 14))
    return simulate_policies(inst, [bs, mp, sdp], 10_000, 2017)


def _golden_grid25():
    """h25-SIN1-K1000-b5-cv0.2's SDP policy at the benchmark's 200k."""
    [inst] = build_instances(BenchmarkConfig(
        horizon=25, patterns=("SIN1",), fixed_costs=(1000.0,),
        penalty_costs=(5.0,), cvs=(0.2,)))
    sdp = PolicyParameters(
        (35, 82, 84, 43, -11, -41, -50, -25, 45, 86, 79, 33, -18, -45, -63,
         -9, 57, 92, 59, 4, -40, -45, -2, 52, -65),
        (573, 455, 316, 213, 153, 256, 260, 631, 557, 433, 303, 214, 162,
         149, 278, 599, 515, 382, 237, 304, 294, 296, 298, 263, 172))
    return [simulate_policy(inst, sdp, 200_000, 25)]


def _golden_edges():
    """c > 0, a zero-sd period and negative I0, in 500-replication
    blocks with a short last one."""
    inst = make_instance(horizon=4, K=100, h=1, b=10, c=2,
                         means=[20, 40, 60, 40], std_devs=[5, 0, 15, 10],
                         initial_inventory=-15)
    policy = PolicyParameters((15, 29, 58, 29), (70, 54, 117, 54))
    return [simulate_policy(inst, policy, 3001, 8, chunk_size=500)]


@pytest.mark.parametrize("call, expected", [
    (_golden_grid8, [
        ("0x1.b5233354bf7c8p+9", "0x1.d79cd757971d6p-1", "0x1.205bc01a36e2fp-11"),
        ("0x1.b5256a50c8fa1p+9", "0x1.d782bdab0436fp-1", "0x1.205bc01a36e2fp-11"),
        ("0x1.b428a55cc036bp+9", "0x1.001e33c5cf160p+0", "0x1.205bc01a36e2fp-11"),
    ]),
    (_golden_grid25, [
        ("0x1.07ad419582a74p+13", "0x1.6df0eff0fe311p-1", "0x1.ad7f29abcaf48p-22"),
    ]),
    (_golden_edges, [
        ("0x1.70b26a23cac0ap+9", "0x1.835badd6b066cp-1", "0x0.0p+0"),
    ]),
], ids=["8-period-grid", "25-period-sdp", "edge-cases"])
def test_golden_pricing_bits(call, expected):
    """Fixed calls keep their mean, standard error and truncation
    frequency to the bit across versions: the draw path (Philox counters,
    uniforms, ndtri, truncation), the period loop and the reduction are
    pinned, not just checked against each other in one version."""
    got = [(r.mean.hex(), r.standard_error.hex(), r.truncation_frequency.hex())
           for r in call()]
    assert got == expected


class TestSplitPricing:
    """Calls with at least two full blocks split their replications into
    spans priced on this thread and on pool threads."""

    @settings(max_examples=30, deadline=None)
    @given(case=_policy_list_cases(), cpus=st.integers(2, 3))
    def test_split_is_bit_equal_to_one_process(self, case, cpus):
        inst, policies, reps, seed, _ = case
        whole = simulate_policies(inst, policies, reps, seed,
                                  chunk_size=reps)
        chunk_size = max(1, reps // 5)
        with mock.patch.object(simulate, "_usable_cpus", lambda: cpus):
            split = simulate_policies(inst, policies, reps, seed,
                                      chunk_size=chunk_size)
        assert [_bits(r) for r in split] == [_bits(r) for r in whole]

    @pytest.mark.parametrize("replications", [1, 499, 500, 501, 999])
    def test_under_two_blocks_starts_no_thread(self, example4, sdp4,
                                               replications):
        """Fewer than two full blocks price on the calling thread, however
        many CPUs: a pool would be a ThreadPoolExecutor, patched to raise."""
        with mock.patch.object(simulate, "_usable_cpus", lambda: 8), \
                mock.patch.object(simulate, "ThreadPoolExecutor",
                                  side_effect=AssertionError("pool started")):
            got = simulate_policy(example4, sdp4.policy, replications, 3,
                                  chunk_size=500)
        assert _bits(got) == _bits(simulate_policy(
            example4, sdp4.policy, replications, 3, chunk_size=replications))

    def test_two_full_blocks_split_in_two(self, example4, sdp4):
        """2 * chunk_size replications on two CPUs: two spans of one block
        each, bit-equal to one span."""
        spans = []
        real = simulate._price_span

        def record_span(instance, policies, seed, start, chunk_size, out):
            spans.append((start, out.shape[1]))
            return real(instance, policies, seed, start, chunk_size, out)

        with mock.patch.object(simulate, "_usable_cpus", lambda: 2), \
                mock.patch.object(simulate, "_price_span", record_span):
            got = simulate_policy(example4, sdp4.policy, 1000, 5,
                                  chunk_size=500)
        assert sorted(spans) == [(0, 500), (500, 500)]
        assert _bits(got) == _bits(
            simulate_policy(example4, sdp4.policy, 1000, 5, chunk_size=1000))

    def test_failing_span_raises_itself(self, example4, sdp4):
        """A pool span's exception surfaces unchanged, and the next call
        prices as if nothing had happened."""
        real = simulate._price_span

        def fail_after_first_span(instance, policies, seed, start, *rest):
            if start > 0:
                raise FloatingPointError("span lost")
            return real(instance, policies, seed, start, *rest)

        with mock.patch.object(simulate, "_usable_cpus", lambda: 2):
            with mock.patch.object(simulate, "_price_span",
                                   fail_after_first_span):
                with pytest.raises(FloatingPointError, match="span lost"):
                    simulate_policy(example4, sdp4.policy, 2000, 4,
                                    chunk_size=500)
            after = simulate_policy(example4, sdp4.policy, 2000, 4,
                                    chunk_size=500)
        assert _bits(after) == _bits(
            simulate_policy(example4, sdp4.policy, 2000, 4, chunk_size=2000))

    def test_split_starts_no_process(self, example4, sdp4):
        """Six spans, more than most runners have cores, switching threads
        every microsecond, with os.fork patched to raise: the spans' columns
        stay apart and no process starts."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(simulate, "_usable_cpus", lambda: 8), \
                    mock.patch.object(os, "fork", side_effect=AssertionError(
                        "pricing forked a process")):
                split = simulate_policy(example4, sdp4.policy, 3000, 8,
                                        chunk_size=500)
        finally:
            sys.setswitchinterval(interval)
        assert _bits(split) == _bits(
            simulate_policy(example4, sdp4.policy, 3000, 8, chunk_size=3000))

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched span must reach forked workers")
    def test_benchmark_workers_price_in_one_span(self, tmp_path):
        """run_benchmark(jobs=2) workers, which already use the cores,
        price each call in one span starting at replication 0."""
        log = tmp_path / "spans"
        real = simulate._price_span

        def record_span(instance, policies, seed, start, chunk_size, out):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()} {start} {out.shape[1]}\n")
            return real(instance, policies, seed, start, chunk_size, out)

        config = BenchmarkConfig(patterns=("STA",), fixed_costs=(500.0,),
                                 penalty_costs=(5.0, 10.0), cvs=(0.1,),
                                 replications=2 * 8192)
        with mock.patch.object(simulate, "_usable_cpus", lambda: 2), \
                mock.patch.object(simulate, "_price_span", record_span):
            report = run_benchmark(config, jobs=2)
        assert [r.status for r in report.results] == ["ok", "ok"]
        spans = [line.split() for line in log.read_text().splitlines()]
        assert len(spans) == 2
        assert all(int(pid) != os.getpid() for pid, _, _ in spans)
        assert all((start, width) == ("0", str(config.replications))
                   for _, start, width in spans)


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
