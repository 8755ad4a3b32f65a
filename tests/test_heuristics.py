import logging
import math
import os
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import per_suffix_mp_policy, reference_pieces
from sspolicy import solver as solver_module
from sspolicy.domain import ValidationError, make_instance
from sspolicy.heuristics import (
    HeuristicConfig, bs_policy, cycle_table, mp_policy, read_policy_csv,
    write_policy_csv,
)
from sspolicy.model import build_segments, default_big_m, level_bounds
from sspolicy.sdp import solve_sdp
from sspolicy.simulate import simulate_policy
from sspolicy.solver import CycleTable, ExactBackend, SolverError, _SubmodelEngine
from sspolicy.testbed import BenchmarkConfig, build_instances

TABLE_MP = {  # joint-model heuristic on the worked example
    "s": (15.0008, 29.0161, 58.1089, 29.0161),
    "S": (70.2658, 53.9768, 116.5530, 53.9768),
    "cost": (366.138, 311.369, 193.338, 118.031),
}
TABLE_BS = {  # binary-search heuristic, step 0.01
    "s": (15.0, 29.01, 58.1, 29.01),
    "S": (70.2658, 53.9768, 116.5530, 53.9768),
    "cost": (366.138, 311.369, 193.338, 118.031),
}


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def table_config():
    return HeuristicConfig(segments=11, strategy="minimax", bs_step_size=0.01)


@pytest.fixture(scope="module")
def mp4(example4, table_config):
    return mp_policy(example4, table_config)


@pytest.fixture(scope="module")
def bs4(example4, table_config):
    return bs_policy(example4, table_config)


class TestConfig:
    def test_defaults(self):
        cfg = HeuristicConfig()
        assert cfg.cells == 10
        assert cfg.bs_step_size == 0.1
        assert BenchmarkConfig().heuristic_config().bs_step_size == 0.1

    def test_one_step_at_every_horizon(self):
        """The default step is 0.1 on every suffix of a 25-period instance,
        the longest ones included: the default policy is the one at step
        0.1, bit for bit."""
        instance = build_instances(BenchmarkConfig(horizon=25))[0]
        table = cycle_table(instance, HeuristicConfig())
        default, fine = (
            bs_policy(instance, config, table=table)
            for config in (HeuristicConfig(), HeuristicConfig(bs_step_size=0.1)))
        for field in ("reorder_points", "order_up_to_levels", "costs"):
            assert [v.hex() for v in getattr(default, field)] == \
                [v.hex() for v in getattr(fine, field)], field
        assert default.flagged_periods == fine.flagged_periods == ()

    def test_lower_bound_brackets_never_order_root(self, example4):
        """A negative integer K/b plus one unit below the demand reach, so
        it lies below -K/b even with no demand left."""
        low = HeuristicConfig().lower_bound_for(example4)
        assert low == -float(math.ceil(160 + 6 * math.sqrt(450) + 100 / 10) + 1)
        empty = make_instance(horizon=1, K=100, h=1, b=10, c=0, means=[0],
                              std_devs=[0])
        assert HeuristicConfig().lower_bound_for(empty) < -100 / 10

    def test_validation(self):
        with pytest.raises(ValueError):
            HeuristicConfig(segments=2)
        with pytest.raises(ValueError):
            HeuristicConfig(bs_step_size=-0.1)
        with pytest.raises(ValidationError,
                           match=re.escape("bs_step_size must be a number, got None")):
            HeuristicConfig(bs_step_size=None)


class TestJointHeuristic:
    def test_reorder_points(self, mp4):
        for got, want in zip(mp4.reorder_points, TABLE_MP["s"]):
            assert got == pytest.approx(want, abs=1.5)

    def test_order_up_to_levels(self, mp4):
        for got, want in zip(mp4.order_up_to_levels, TABLE_MP["S"]):
            assert got == pytest.approx(want, abs=1.5)

    def test_linked_costs(self, mp4):
        for got, want in zip(mp4.costs, TABLE_MP["cost"]):
            assert got == pytest.approx(want, abs=3)

    def test_single_period_suffix_is_newsvendor_with_fixed_cost(self, example4,
                                                                table_config):
        """S_T from the final suffix equals the one-period linearized
        optimum computed directly on the segment data."""
        import numpy as np
        from sspolicy.model import build_segments
        suffix = example4.suffix(4)
        segs = build_segments(suffix, segments=table_config.cells,
                              strategy=table_config.strategy)
        pw = reference_pieces(suffix, segs)[(1, 1)]
        ys = np.unique(np.concatenate((np.linspace(0, 120, 24001),
                                       np.asarray(pw.breakpoints))))
        cost = 1 * pw.upper(ys) + 10 * (pw.upper(ys) - (ys - 40.0))
        best = ys[np.argmin(cost)]
        mp = mp_policy(example4, table_config)
        assert mp.order_up_to_levels[3] == pytest.approx(best, abs=1e-6)

    def test_deterministic_demand_covers_cycles(self):
        inst = make_instance(horizon=3, K=5, h=1, b=100, c=0,
                             means=[30, 20, 25], std_devs=[0, 0, 0])
        pol = mp_policy(inst, HeuristicConfig(segments=6))
        # tiny K, huge b: order every period to exactly the period demand
        assert pol.order_up_to_levels == pytest.approx((30, 20, 25), abs=1e-6)
        for s, mu in zip(pol.reorder_points, (30, 20, 25)):
            assert mu - 1 < s < mu  # just below the cycle demand


class TestBinarySearchHeuristic:
    def test_reorder_points(self, bs4):
        for got, want in zip(bs4.reorder_points, TABLE_BS["s"]):
            assert got == pytest.approx(want, abs=1.5)

    def test_order_up_to_levels(self, bs4):
        for got, want in zip(bs4.order_up_to_levels, TABLE_BS["S"]):
            assert got == pytest.approx(want, abs=1.5)

    def test_costs(self, bs4):
        for got, want in zip(bs4.costs, TABLE_BS["cost"]):
            assert got == pytest.approx(want, abs=3)

    def test_close_to_joint_heuristic(self, bs4, mp4):
        """Every root is bracketed, so no period is flagged and the reorder
        points agree to the 0.01 search step."""
        assert bs4.flagged_periods == ()
        for a, b in zip(bs4.reorder_points, mp4.reorder_points):
            assert abs(a - b) <= 0.01

    def test_unbracketed_roots_are_flagged(self, example4, table_config, bs4,
                                           monkeypatch):
        """A search lower bound of 60, above every reorder point, leaves
        each period's root unbracketed: all four periods are flagged. Where
        S_k is above 60 the bracket empties at the bound; elsewhere the
        reorder point is clipped to S_k."""
        monkeypatch.setattr(HeuristicConfig, "lower_bound_for",
                            lambda self, instance: 60.0)
        policy = bs_policy(example4, table_config)
        assert policy.flagged_periods == (1, 2, 3, 4)
        assert policy.order_up_to_levels == bs4.order_up_to_levels
        assert policy.reorder_points == tuple(
            min(60.0, big_s) for big_s in policy.order_up_to_levels)
        assert sum(big_s < 60.0 for big_s in policy.order_up_to_levels) == 2

    def test_zero_fixed_cost_immediate(self):
        inst = make_instance(horizon=2, K=0, h=1, b=10, c=0,
                             means=[20, 30], cv=0.2)
        pol = bs_policy(inst, HeuristicConfig(segments=6))
        assert pol.reorder_points == pol.order_up_to_levels
        assert pol.flagged_periods == ()

    def test_s_below_S_everywhere(self, bs4, mp4):
        for pol in (bs4, mp4):
            for s, big_s in zip(pol.reorder_points, pol.order_up_to_levels):
                assert s <= big_s + 1e-9

    def test_evaluation_count_logarithmic(self, example4, table_config):
        """Per-period fixed-level solves stay within the bisection budget."""
        counts = []

        class CountingBackend(ExactBackend):
            def evaluator(self, model):
                ev = super().evaluator(model)
                orig = ev.cost_at
                counter = [0]

                def counted(x):
                    counter[0] += 1
                    return orig(x)

                ev.cost_at = counted
                counts.append(counter)
                return ev

        policy = bs_policy(example4, table_config, backend=CountingBackend())
        for k, counter in enumerate(counts, start=1):
            low = table_config.lower_bound_for(example4.suffix(k))
            span = policy.order_up_to_levels[k - 1] - low
            budget = math.ceil(math.log2(span / 0.01)) + 2
            assert counter[0] <= budget, f"suffix {k}: {counter[0]} > {budget}"

    def test_simulated_close_to_oracle(self, example4, bs4, mp4):
        """Both heuristics' period-1 pairs are near the exact benchmark and
        their simulated costs land within 2% of it."""
        sdp = solve_sdp(example4)
        s_star, S_star = sdp.policy.pair(1)
        for pol in (bs4, mp4):
            assert pol.reorder_points[0] == pytest.approx(s_star, abs=1.5)
            assert pol.order_up_to_levels[0] == pytest.approx(S_star, abs=1.5)
            sim = simulate_policy(example4, pol, replications=200000, seed=17)
            assert abs(sim.mean - sdp.expected_cost) / sdp.expected_cost < 0.02


class TestSharedTable:
    """Both heuristics on one cycle table, as testbed.run_instance runs
    them, give the policies of their own tables."""

    @pytest.mark.parametrize("order", [("bs", "mp"), ("mp", "bs")])
    @pytest.mark.parametrize("costs", [dict(K=100, c=0), dict(K=0, c=1.5)],
                             ids=["K100-c0", "K0-c1.5"])
    def test_policies_equal_own_tables(self, table_config, order, costs):
        inst = make_instance(horizon=4, h=1, b=10, means=[20, 40, 0, 40],
                             std_devs=[5, 10, 0, 10], initial_inventory=-7.5,
                             **costs)
        heuristics = {"bs": bs_policy, "mp": mp_policy}
        table = cycle_table(inst, table_config)
        for method in order:
            shared = heuristics[method](inst, table_config, table=table)
            assert repr(shared) == repr(heuristics[method](inst, table_config))

    @pytest.mark.parametrize("heuristic", [bs_policy, mp_policy],
                             ids=["bs", "mp"])
    def test_table_of_own_segments_accepted(self, example4, table_config,
                                            heuristic):
        """A table built directly from the instance's segments at the
        config's partition is accepted: the segments carry the partition
        they were built from. The policy is the heuristic's own table's."""
        table = CycleTable(example4, build_segments(
            example4, segments=table_config.cells,
            strategy=table_config.strategy))
        assert repr(heuristic(example4, table_config, table=table)) == \
            repr(heuristic(example4, table_config))

    @pytest.mark.parametrize("heuristic", [bs_policy, mp_policy],
                             ids=["bs", "mp"])
    @pytest.mark.parametrize("other, message", [
        (None, "does not match instance"),
        (dict(segments=9), "partition (10, 'minimax') (cells, strategy)"),
        (dict(strategy="equal-probability"),
         "partition (10, 'minimax') (cells, strategy)"),
    ], ids=["instance", "cells", "strategy"])
    def test_mismatched_table_rejected(self, example4, table_config,
                                       heuristic, other, message):
        if other is None:  # a table of another instance
            table = cycle_table(example4.suffix(2), table_config)
        else:
            table = cycle_table(example4, table_config)
            table_config = HeuristicConfig(**{
                "segments": table_config.segments,
                "strategy": table_config.strategy, **other})
        with pytest.raises(ValidationError, match=re.escape(message)):
            heuristic(example4, table_config, table=table)

    def test_work_logged_per_policy(self, example4, table_config, caplog):
        """One DEBUG record per policy, with the patterns, certified
        answers and root fallbacks it added to its table's engines; mp on
        bs's table searches no free minimum again."""
        assert logging.getLogger("sspolicy.heuristics").handlers == []
        pattern = re.compile(r"(\w+) policy of .*: (\d+) patterns solved, "
                             r"(\d+) cost_at answers certified, "
                             r"(\d+) root fallbacks")
        table = cycle_table(example4, table_config)
        work = [table.work()]
        with caplog.at_level(logging.DEBUG, logger="sspolicy.heuristics"):
            bs_policy(example4, table_config, table=table)
            work.append(table.work())
            mp_policy(example4, table_config, table=table)
            work.append(table.work())
            mp_policy(example4, table_config)
        records = [pattern.fullmatch(r.getMessage()) for r in caplog.records
                   if r.name == "sspolicy.heuristics"]
        assert [m.group(1) for m in records] == ["bs", "mp", "mp"]
        logged = [tuple(int(m.group(i)) for i in (2, 3, 4)) for m in records]
        for i in range(2):
            assert logged[i] == tuple(a - b for a, b in zip(work[i + 1], work[i]))
        assert logged[0][0] > 0 and logged[0][1] > 0
        assert logged[1][0] < logged[2][0]  # free minima were bs's


def test_policy_csv_round_trip(tmp_path, bs4):
    path = tmp_path / "policy.csv"
    write_policy_csv(bs4, path)
    back = read_policy_csv(path)
    assert back.reorder_points == pytest.approx(bs4.reorder_points, abs=1e-9)
    assert back.order_up_to_levels == pytest.approx(bs4.order_up_to_levels,
                                                    abs=1e-9)
    assert back.costs == pytest.approx(bs4.costs, abs=1e-9)


def test_refining_segments_tightens_linearization(example4):
    """More cells never widen the gap between the linearized optimum and
    the exact-loss cost of the same decisions."""
    from sspolicy.loss import complementary_loss
    from sspolicy.model import build_minlp_s, build_segments
    from sspolicy.solver import solve_exact

    def linearization_gap(n_cells):
        segs = build_segments(example4, segments=n_cells)
        res = solve_exact(build_minlp_s(example4, segs))
        a = res.assignment
        pieces = reference_pieces(example4, segs)
        exact = 0.0
        for t in range(1, 5):
            j = next(j for j in range(1, t + 1)
                     if round(a[f"P_s_{j}_{t}"]) == 1)
            pw = pieces[(j, t)]
            y = a[f"I_s_{t}"] + pw.mean
            h_val = complementary_loss(y, pw.mean, pw.std_dev)
            exact += 1 * h_val + 10 * (h_val - a[f"I_s_{t}"])
            exact += 100 * round(a[f"delta_s_{t}"])
        return res.objective - exact

    gaps = [linearization_gap(n) for n in (4, 8, 16)]
    assert gaps[0] >= gaps[1] >= gaps[2] >= -1e-9


def _hex(policy) -> list:
    return [[float(v).hex() for v in values] for values in (
        policy.reorder_points, policy.order_up_to_levels, policy.costs)]


def _assert_mp_matches_per_suffix(instance, config, bs_first=False):
    """mp_policy is bit-equal to one joint model per suffix and leaves its
    table with equal work counters."""
    tables = cycle_table(instance, config), cycle_table(instance, config)
    if bs_first:
        for table in tables:
            bs_policy(instance, config, table=table)
    got = mp_policy(instance, config, table=tables[0])
    ref = per_suffix_mp_policy(instance, config, table=tables[1])
    assert _hex(got) == _hex(ref), instance.name
    assert tables[0].work() == tables[1].work(), instance.name


@st.composite
def _mp_cases(draw):
    """T = 1-8, K = 0, c > 0, zero-sd periods, zero-mean tails, negative
    initial inventory and 3..21 linear segments of either strategy."""
    T = draw(st.integers(1, 8))
    means = draw(st.lists(st.floats(0, 30).map(lambda v: round(v, 1)),
                          min_size=T, max_size=T))
    tail = draw(st.integers(0, min(2, T - 1)))
    means = means[:T - tail] + [0.0] * tail
    cvs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=T, max_size=T))
    inst = make_instance(
        horizon=T, K=draw(st.sampled_from([0.0, 40.0, 150.0])), h=1.3, b=9.0,
        c=draw(st.sampled_from([0.0, 1.5])), means=means,
        std_devs=[m * v for m, v in zip(means, cvs)],
        initial_inventory=draw(st.sampled_from([0.0, -12.5])))
    config = HeuristicConfig(
        segments=draw(st.integers(3, 21)),
        strategy=draw(st.sampled_from(["equal-probability", "minimax"])))
    return inst, config


class TestStackedJointCheck:
    """mp writes every suffix's answer into one stacked model per instance
    and checks it once; one joint model per suffix is the reference."""

    @settings(max_examples=30, deadline=None)
    @given(case=_mp_cases(), bs_first=st.booleans())
    def test_matches_per_suffix_models(self, case, bs_first):
        _assert_mp_matches_per_suffix(*case, bs_first=bs_first)

    @pytest.mark.parametrize("unit_cost", [0.0, 1.5])
    def test_grid_sample_matches_per_suffix_models(self, unit_cost):
        """Every 10th 8-period grid instance, bs then mp on each table."""
        config = BenchmarkConfig(horizon=8, unit_cost=unit_cost)
        for instance in build_instances(config)[::10]:
            _assert_mp_matches_per_suffix(
                instance, config.heuristic_config(), bs_first=True)

    @pytest.mark.parametrize("k", [1, 3, 4])
    @pytest.mark.parametrize("entry, name, axis", [
        ("C_S", "def_C_S", "row"), ("H_S_1", "loss_S_1_1", "rule"),
        ("I_s_1", "bound_I_s_1", "column")])
    def test_corrupted_block_names_its_suffix(self, example4, table_config,
                                              monkeypatch, k, entry, name, axis):
        """A broken entry of suffix k's block fails the one check, named by
        suffix k and its row, rule or column."""
        check = solver_module._self_check

        def corrupt(model, x, obj, cost, stack=None):
            cols = stack.columns[k - 1]
            at = {"C_S": stack.linked[k - 1, 0], "H_S_1": cols["S"].holding[0],
                  "I_s_1": cols["s"].inventory[0]}[entry]
            x[at] = math.nan if axis == "column" else x[at] + 1.0
            return check(model, x, obj, cost, stack)

        monkeypatch.setattr(solver_module, "_self_check", corrupt)
        with pytest.raises(SolverError, match="fails verification") as info:
            mp_policy(example4, table_config)
        named = re.findall(r"'suffix k=(\d+): (\w+)'", str(info.value))
        assert named and all(int(n) == k for n, _ in named), str(info.value)
        assert name in [row for _, row in named], str(info.value)

    def test_clean_stack_has_no_violations(self, example4, table_config,
                                           monkeypatch):
        seen = []
        check = solver_module._self_check

        def record(model, x, obj, cost, stack=None):
            seen.append((len(stack.columns), stack.verify(model, x)))
            return check(model, x, obj, cost, stack)

        monkeypatch.setattr(solver_module, "_self_check", record)
        mp_policy(example4, table_config)
        assert seen == [(example4.horizon, [])]  # one check, all suffixes

    def test_engine_failure_names_its_suffix(self, example4, table_config,
                                             monkeypatch):
        root = _SubmodelEngine.reorder_root

        def failing(self, target, hi):
            if self.T == example4.horizon - 2:  # suffix 3
                raise SolverError("no root")
            return root(self, target, hi)

        monkeypatch.setattr(_SubmodelEngine, "reorder_root", failing)
        with pytest.raises(RuntimeError,
                           match="joint solve failed at suffix k=3: no root"):
            mp_policy(example4, table_config)


@st.composite
def _deterministic_instances(draw):
    """Zero-sd instances with integer means and an integer initial level:
    T = 1..6, K = 0..200, zero-mean periods, unit costs from 0 to just
    below b, negative initial levels, 2..10 cells."""
    T = draw(st.integers(1, 6))
    b = draw(st.sampled_from([1.0, 2.0, 5.0, 10.0, 20.0]))
    instance = make_instance(
        T, K=float(draw(st.sampled_from([0, 5, 40, 200]) | st.integers(0, 200))),
        h=draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0])), b=b,
        c=b * draw(st.sampled_from([0.0, 0.1, 0.45, 0.75, 0.9, 0.99])),
        std_devs=[0.0] * T,
        means=draw(st.lists(st.just(0.0) | st.integers(0, 40).map(float),
                            min_size=T, max_size=T)),
        initial_inventory=float(draw(st.integers(-40, 40))))
    return instance, HeuristicConfig(segments=draw(st.integers(3, 11)))


class TestDeterministicOracle:
    """With every std dev 0, integer means and an integer initial level,
    the losses, the linearized model, the SDP's single demand atoms on its
    step-1 grid and the simulated cost are exact, so both heuristics'
    policies cost the SDP optimum. Costs are compared, not levels: ties
    and flat stretches admit other optimal levels."""

    @settings(max_examples=60, deadline=None)
    @given(case=_deterministic_instances())
    def test_policies_cost_the_optimum(self, case):
        instance, config = case
        optimum = solve_sdp(instance).expected_cost
        table = cycle_table(instance, config)
        for policy in (bs_policy(instance, config, table=table),
                       mp_policy(instance, config, table=table)):
            cost = simulate_policy(instance, policy, replications=2, seed=3).mean
            assert cost == pytest.approx(optimum, rel=1e-9, abs=1e-9), policy

    def test_never_order_band_at_unit_cost(self):
        """One period, no demand uncertainty: ordering from level x costs
        K + c (3 - x) and not ordering b (3 - x), so the never-order band
        reaches K/(b - c) = 50 below the demand. The SDP keeps the tie at
        -47 against ordering (s = -48); both heuristics find that root,
        and their linked cost is the SDP's reorder cost K + c S."""
        instance = make_instance(1, K=5, h=1, b=1, c=0.9, means=[3],
                                 std_devs=[0])
        assert instance.costs.never_order_depth == pytest.approx(50.0)
        sdp = solve_sdp(instance).policy
        assert sdp.pair(1) == (-48.0, 3.0)
        assert HeuristicConfig().lower_bound_for(instance) < -47.0
        assert level_bounds(instance, default_big_m(instance))[0] < -50.0
        for policy in (bs_policy(instance), mp_policy(instance)):
            assert policy.reorder_points[0] == pytest.approx(-47.0, abs=1e-9)
            assert policy.order_up_to_levels == (3.0,)
            assert policy.costs[0] == pytest.approx(sdp.costs[0], abs=1e-12)


def test_order_up_to_levels_agree_on_tied_patterns():
    """Both heuristics read S_k from the same free minimum, so they agree
    even where order patterns tie exactly (here in period 4)."""
    config = BenchmarkConfig(horizon=25, patterns=("STA",), fixed_costs=(1000.0,),
                             penalty_costs=(5.0,), cvs=(0.1,))
    (instance,) = build_instances(config)
    assert instance.name == "h25-STA-K1000-b5-cv0.1"
    bs = bs_policy(instance, config.heuristic_config())
    mp = mp_policy(instance, config.heuristic_config())
    assert bs.order_up_to_levels == mp.order_up_to_levels
    assert bs.costs == mp.costs


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="full 270-instance grids are optional; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_order_up_to_levels_agree(horizon):
    config = BenchmarkConfig(horizon=horizon)
    hc = config.heuristic_config()
    instances = build_instances(config)
    for instance in instances:
        bs = bs_policy(instance, hc)
        mp = mp_policy(instance, hc)
        assert bs.order_up_to_levels == mp.order_up_to_levels, instance.name
        assert bs.costs == mp.costs, instance.name
    print(f"\n[heuristics] {horizon} periods: bs and mp order-up-to levels "
          f"and linked costs equal on {len(instances)} instances")


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="full 270-instance grids are optional; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_mp_matches_per_suffix_models(horizon):
    """Every mp policy of both grids, after bs on its table, bit-equal to
    one joint model per suffix, with equal work counters."""
    config = BenchmarkConfig(horizon=horizon)
    instances = build_instances(config)
    for instance in instances:
        _assert_mp_matches_per_suffix(instance, config.heuristic_config(),
                                      bs_first=True)
    print(f"\n[heuristics] {horizon} periods: mp bit-equal to per-suffix "
          f"joint models on {len(instances)} instances")
