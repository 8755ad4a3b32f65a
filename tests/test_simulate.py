import contextlib
import dataclasses
import math
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
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
    PricingHelperError, estimate_gap, estimate_gaps, simulate_policies,
    simulate_policy,
)
from sspolicy.testbed import (
    BenchmarkConfig, build_instances, instance_seed, run_benchmark,
)


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


@contextlib.contextmanager
def _deadline(seconds):
    """Fail, rather than hang, a block that runs past `seconds`."""
    def expire(*_):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _gone(pid):
    """True once `pid` has exited: no such process, or a zombie left for
    init to reap after its parent was killed."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] == "Z"


def _wait_gone(pid, seconds=10.0):
    deadline = time.monotonic() + seconds
    while not _gone(pid):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="pricing helpers are forked")


@pytest.fixture
def fresh_helpers():
    """No helper before the test, and none left after it."""
    simulate._helpers.stop()
    yield simulate._helpers
    simulate._helpers.stop()


@needs_fork
class TestSplitPricing:
    """Calls with more than one block split their replications between
    this process and forked helpers."""

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

    def test_helpers_persist_between_calls(self, example4, sdp4, fresh_helpers):
        with mock.patch.object(simulate, "_usable_cpus", lambda: 3):
            first = simulate_policy(example4, sdp4.policy, 3000, 8,
                                    chunk_size=500)
            pids = [pid for pid, _ in fresh_helpers.procs]
            second = simulate_policy(example4, sdp4.policy, 3000, 8,
                                     chunk_size=500)
        assert len(pids) == 2
        assert [pid for pid, _ in fresh_helpers.procs] == pids
        assert _bits(first) == _bits(second) == _bits(
            simulate_policy(example4, sdp4.policy, 3000, 8, chunk_size=3000))

    def test_killed_helper_raises_then_recovers(self, example4, sdp4,
                                                fresh_helpers):
        with mock.patch.object(simulate, "_usable_cpus", lambda: 2):
            simulate_policy(example4, sdp4.policy, 2000, 4, chunk_size=500)
            [(pid, _)] = fresh_helpers.procs
            os.kill(pid, signal.SIGKILL)
            with _deadline(30), pytest.raises(PricingHelperError,
                                              match=f"helper {pid} died"):
                simulate_policy(example4, sdp4.policy, 2000, 4,
                                chunk_size=500)
            assert fresh_helpers.procs == []
            assert _gone(pid)
            with _deadline(30):
                after = simulate_policy(example4, sdp4.policy, 2000, 4,
                                        chunk_size=500)
            assert len(fresh_helpers.procs) == 1
        assert _bits(after) == _bits(
            simulate_policy(example4, sdp4.policy, 2000, 4, chunk_size=2000))

    def test_failing_helper_raises_by_name(self, example4, sdp4,
                                           fresh_helpers):
        real = simulate._price_span

        def fail_after_first_span(instance, policies, seed, start, *rest):
            if start > 0:
                raise FloatingPointError("span lost")
            return real(instance, policies, seed, start, *rest)

        with mock.patch.object(simulate, "_usable_cpus", lambda: 2):
            with mock.patch.object(simulate, "_price_span",
                                   fail_after_first_span), _deadline(30):
                with pytest.raises(PricingHelperError,
                                   match="failed: FloatingPointError: span lost"):
                    simulate_policy(example4, sdp4.policy, 2000, 4,
                                    chunk_size=500)
            assert fresh_helpers.procs == []
            after = simulate_policy(example4, sdp4.policy, 2000, 4,
                                    chunk_size=500)
        assert _bits(after) == _bits(
            simulate_policy(example4, sdp4.policy, 2000, 4, chunk_size=2000))

    @pytest.mark.parametrize("ending", ["exit", "sigkill"])
    def test_no_helper_outlives_its_parent(self, ending):
        """After a normal exit or SIGKILL of the parent, its helper is gone
        within 10 s."""
        script = (
            "import sys, time\n"
            "from sspolicy import simulate\n"
            "from sspolicy.domain import PolicyParameters, make_instance\n"
            "simulate._usable_cpus = lambda: 2\n"
            "inst = make_instance(horizon=4, K=100, h=1, b=10, c=0,\n"
            "                     means=[20, 40, 60, 40], cv=0.25)\n"
            "policy = PolicyParameters((10.0,) * 4, (60.0,) * 4)\n"
            "simulate.simulate_policy(inst, policy, 2000, 1, chunk_size=500)\n"
            "print(*[pid for pid, _ in simulate._helpers.procs], flush=True)\n"
            "if sys.argv[1] == 'sigkill':\n"
            "    time.sleep(120)\n")
        src = Path(simulate.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen([sys.executable, "-c", script, ending],
                                stdout=subprocess.PIPE, text=True, env=env)
        try:
            with _deadline(60):
                line = proc.stdout.readline()
            pids = [int(p) for p in line.split()]
            assert len(pids) == 1
            if ending == "sigkill":
                proc.kill()
            assert proc.wait(timeout=60) == (0 if ending == "exit" else
                                             -signal.SIGKILL)
        finally:
            proc.kill()
            proc.wait()
            proc.stdout.close()
        assert _wait_gone(pids[0], 10.0)

    def test_benchmark_workers_start_no_helper(self, example4, sdp4,
                                               fresh_helpers, tmp_path):
        """run_benchmark(jobs=2) workers price alone: they neither start
        helpers nor use the ones they inherit from this process."""
        # live helpers here, which forked workers inherit
        with mock.patch.object(simulate, "_usable_cpus", lambda: 2):
            before = simulate_policy(example4, sdp4.policy, 2000, 4,
                                     chunk_size=500)
        assert len(fresh_helpers.procs) == 1
        marker = tmp_path / "forked"

        def record_fork(self):
            marker.write_text(str(os.getpid()))
            raise AssertionError("a pricing helper was started")

        config = BenchmarkConfig(patterns=("STA",), fixed_costs=(500.0,),
                                 penalty_costs=(5.0, 10.0), cvs=(0.1,))
        assert config.replications > 8192
        with mock.patch.object(simulate._Helpers, "_fork", record_fork):
            report = run_benchmark(config, jobs=2)
            assert not marker.exists()
            assert [r.status for r in report.results] == ["ok", "ok"]
            with mock.patch.object(simulate, "_usable_cpus", lambda: 2):
                after = simulate_policy(example4, sdp4.policy, 2000, 4,
                                        chunk_size=500)
        assert _bits(after) == _bits(before)


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
