import dataclasses
import math
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import (dense_sdp_tables, policy_from_tables,
                            stored_sdp_tables)
from sspolicy.domain import ValidationError, make_instance
from sspolicy.sdp import (
    GridTooSmallError, InventoryGrid, SdpSolution, _snap, check_k_convexity,
    default_grid, discretize_demand, cost_to_go, solve_sdp, write_g_curve,
)
from sspolicy.testbed import BenchmarkConfig, build_instances


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def solved4(example4):
    return solve_sdp(example4)


# Anchor values read off the published G_1 curve of the worked example
# (cost = plotted coordinate + 250).
G1_CURVE = {0: 503.0985, 14: 366.1660, 25: 312.6583, 44: 324.4640,
            70: 262.5839, 125: 332.6558, 200: 442.5128}


class TestWorkedExample:
    def test_policy_period1(self, solved4):
        assert solved4.policy.pair(1) == (14.0, 70.0)

    def test_g_minimum(self, solved4):
        assert solved4.g_minimum(1) == pytest.approx(262.5839, abs=0.5)

    def test_reorder_indifference_cost(self, solved4):
        assert solved4.reorder_cost(1) == pytest.approx(362.5839, abs=0.5)

    @pytest.mark.parametrize("y,expect", sorted(G1_CURVE.items()))
    def test_g1_curve_anchors(self, solved4, y, expect):
        assert cost_to_go(solved4, 1, y) == pytest.approx(expect, abs=0.5)

    def test_expected_cost_from_zero(self, solved4):
        # C_1(0) = K + G_1(S_1): level 0 is below the reorder point
        assert solved4.expected_cost == pytest.approx(
            100.0 + solved4.g_minimum(1), abs=1e-9)

    def test_g_exceeds_minimum_everywhere(self, solved4):
        g1 = solved4.g_tables[0]
        assert np.all(g1 >= solved4.g_minimum(1) - 1e-12)

    def test_k_gap_within_one_step_variation(self, solved4):
        g1 = solved4.g_tables[0]
        grid = solved4.grid
        s_idx = grid.index_of(14.0)
        gap = g1[s_idx] - solved4.g_minimum(1) - 100.0
        local_variation = abs(g1[s_idx] - g1[s_idx + 1])
        assert abs(gap) <= local_variation

    def test_grid_refinement_stable(self, example4, solved4):
        fine = default_grid(example4, step=0.5)
        sol_fine = solve_sdp(example4, grid=fine)
        rel = abs(sol_fine.expected_cost - solved4.expected_cost) / solved4.expected_cost
        assert rel < 0.002

    def test_k_convexity_of_solution(self, solved4):
        for t in range(1, 5):
            ok, viol = check_k_convexity(solved4.g_tables[t - 1],
                                         solved4.grid.step, 100.0)
            assert ok, f"period {t} violation {viol}"


class TestTrivialCases:
    def test_symmetric_newsvendor(self):
        inst = make_instance(horizon=1, K=0, h=4, b=4, c=0,
                             means=[100], std_devs=[10])
        sol = solve_sdp(inst)
        s, big_s = sol.policy.pair(1)
        assert big_s == pytest.approx(100, abs=1)
        assert s == big_s  # K = 0: order whenever below the base stock

    def test_zero_demand_never_orders(self):
        inst = make_instance(horizon=3, K=100, h=1, b=10, c=0,
                             means=[0, 0, 0], std_devs=[0, 0, 0])
        sol = solve_sdp(inst)
        assert sol.expected_cost == pytest.approx(0.0, abs=1e-9)
        assert all(s < 0 for s in sol.policy.reorder_points)

    def test_monotone_in_fixed_cost(self, example4):
        base = solve_sdp(example4).expected_cost
        dearer = make_instance(horizon=4, K=150, h=1, b=10, c=0,
                               means=[20, 40, 60, 40], cv=0.25)
        assert solve_sdp(dearer).expected_cost >= base - 1e-9


@st.composite
def _sdp_cases(draw):
    """Small instances for the backward pass: T = 1-5, K = 0, c > 0,
    zero-sd and zero-mean periods, negative initial inventory, grid steps
    1 and 0.5, and explicit grids whose lower bound is off the step."""
    T = draw(st.integers(1, 5))
    means = draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0, 40).map(lambda v: round(v, 1))),
        min_size=T, max_size=T))
    cvs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4]),
                        min_size=T, max_size=T))
    inst = make_instance(
        horizon=T, K=draw(st.sampled_from([0.0, 40.0, 150.0])),
        h=draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2))),
        b=draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2))),
        c=draw(st.sampled_from([0.0, 1.5])), means=means,
        std_devs=[m * v for m, v in zip(means, cvs)],
        initial_inventory=draw(st.sampled_from([0.0, -12.5, 20.0])))
    step = draw(st.sampled_from([1.0, 0.5]))
    grid = default_grid(inst, step=step)
    if draw(st.booleans()):
        # off-step bounds, and up to 8 steps cut from below so that some
        # grids are too small for the policy
        trim = draw(st.integers(0, 8)) + 0.3
        grid = InventoryGrid(grid.lower + trim * step,
                             grid.upper + 0.3 * step, step)
    return inst, grid


def _assert_matches_dense(solution, g_ref, c_ref):
    """Tables equal up to rounding, policies exactly."""
    name = solution.instance.name
    for got, ref in ((solution.g_tables, g_ref), (solution.c_tables, c_ref)):
        assert np.all(np.abs(got - ref)
                      <= 1e-12 * np.maximum(1, np.abs(ref))), name
    policy = policy_from_tables(solution.instance, solution.grid, g_ref)
    assert solution.policy.reorder_points == policy.reorder_points, name
    assert (solution.policy.order_up_to_levels
            == policy.order_up_to_levels), name


class TestDensePassReference:
    @settings(max_examples=80, deadline=None)
    @given(case=_sdp_cases())
    def test_matches_dense_pass(self, case):
        """solve_sdp's tables equal the dense levels x atoms pass up to
        rounding, and both give the same policy or both find the grid too
        small."""
        inst, grid = case
        g_ref, c_ref = dense_sdp_tables(inst, grid, 0.9999)
        try:
            solution = solve_sdp(inst, grid=grid)
        except GridTooSmallError:
            with pytest.raises(GridTooSmallError):
                policy_from_tables(inst, grid, g_ref)
            return
        _assert_matches_dense(solution, g_ref, c_ref)
        assert solution.demand_atoms == tuple(
            discretize_demand(d.mean, d.std_dev, grid.step, 0.9999)[0].size
            for d in inst.demands)


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="the dense pass over 270 instances takes minutes; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_matches_dense_pass(horizon):
    """Every grid instance of the gap study: same policy as the dense pass,
    tables (so the expected cost) equal up to rounding."""
    for inst in build_instances(BenchmarkConfig(horizon=horizon)):
        solution = solve_sdp(inst)
        _assert_matches_dense(
            solution, *dense_sdp_tables(inst, solution.grid, 0.9999))


class TestDerivedCTables:
    """A solution keeps no tables; G is derived on first read and C from
    it on each read."""

    @settings(max_examples=60, deadline=None)
    @given(case=_sdp_cases())
    def test_bit_equal_to_stored_pass(self, case):
        """c_tables, g_tables, expected_cost and the policy have the bits
        of the pass that stored C_t for every period."""
        inst, grid = case
        g_ref, c_ref = stored_sdp_tables(inst, grid, 0.9999)
        try:
            solution = solve_sdp(inst, grid=grid)
        except GridTooSmallError:
            with pytest.raises(GridTooSmallError):
                policy_from_tables(inst, grid, g_ref)
            return
        assert solution.g_tables.tobytes() == g_ref.tobytes()
        assert solution.c_tables.tobytes() == c_ref.tobytes()
        i0 = grid.index_of(_snap(inst.initial_inventory, grid))
        assert solution.expected_cost.hex() == float(c_ref[0][i0]).hex()
        assert solution.policy == policy_from_tables(inst, grid, g_ref)

    def test_not_stored(self, example4):
        solution = solve_sdp(example4)
        for f in dataclasses.fields(SdpSolution):
            assert not isinstance(getattr(solution, f.name), np.ndarray), f.name
        assert solution.c_tables.shape == solution.g_tables.shape


class TestAnswerOnly:
    """A solution keeps its answer, so it compares, hashes and pickles
    as a small value."""

    def test_solves_compare_and_hash_equal(self, example4):
        first, second = solve_sdp(example4), solve_sdp(example4)
        assert first == second
        assert hash(first) == hash(second)

    def test_25_period_pickle_is_small(self):
        inst = build_instances(BenchmarkConfig(horizon=25))[8]
        assert len(pickle.dumps(solve_sdp(inst))) < 64 * 1024

    @pytest.mark.parametrize("i0", [0.0, 60.5])
    def test_small_grid_names_lowest_period(self, i0):
        """Periods 2 and 4 both order up to the grid's upper bound; the
        error names period 2, and comes before the off-grid I_0's."""
        inst = make_instance(horizon=4, K=100, h=1, b=10, c=0,
                             means=[20, 40, 60, 40], cv=0.25,
                             initial_inventory=i0)
        grid = InventoryGrid(default_grid(inst).lower, 40.0, 1.0)
        with pytest.raises(GridTooSmallError,
                           match="order-up-to level for period 2 "):
            solve_sdp(inst, grid=grid)


class TestGridAndDemand:
    def test_grid_validation(self):
        with pytest.raises(ValueError, match="step"):
            InventoryGrid(0, 10, -1)
        with pytest.raises(ValueError, match="lower"):
            InventoryGrid(10, 0, 1)
        with pytest.raises(ValueError, match="integer"):
            InventoryGrid(0.0, 10.5, 1.0)
        g = InventoryGrid(-5, 5, 0.5)
        assert g.size == 21
        assert g.index_of(-4.5) == 1
        with pytest.raises(ValueError, match="not on the grid"):
            g.index_of(0.3)

    @pytest.mark.parametrize("lower, upper", [
        (-math.inf, 10.0), (0.0, math.inf), (math.nan, 10.0)])
    def test_non_finite_bounds_rejected(self, lower, upper):
        with pytest.raises(ValidationError, match="finite"):
            InventoryGrid(lower, upper)

    @pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
    def test_non_finite_level_not_on_grid(self, y):
        with pytest.raises(ValueError, match="not on the grid"):
            InventoryGrid(-5, 5, 0.5).index_of(y)

    @pytest.mark.parametrize("std_dev", [-1.0, math.inf, math.nan])
    def test_bad_demand_std_dev_rejected(self, std_dev):
        with pytest.raises(ValidationError, match="std dev"):
            discretize_demand(10.0, std_dev, 1.0, 0.9999)

    def test_demand_mass_renormalized(self):
        vals, mass = discretize_demand(60.0, 15.0, 1.0, 0.9999)
        assert mass.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(vals >= 0)
        mean = float(vals @ mass)
        assert mean == pytest.approx(60.0, abs=0.05)

    def test_deterministic_demand_single_atom(self):
        vals, mass = discretize_demand(40.0, 0.0, 1.0, 0.9999)
        assert list(vals) == [40.0]
        assert list(mass) == [1.0]

    def test_truncation_parameter_validated(self, example4):
        with pytest.raises(ValueError, match="demand_truncation"):
            solve_sdp(example4, demand_truncation=0.5)

    def test_small_grid_reports_boundary(self, example4):
        with pytest.raises(GridTooSmallError):
            solve_sdp(example4, grid=InventoryGrid(-10, 40, 1.0))

    def test_default_grid_holds_unit_cost_reorder_point(self):
        """With unit cost c the never-order band is about K/(b - c) deep:
        here G(y) = 3 - 0.1 y below S = 3, so G(-47) = K + G(S) and the
        reorder point sits at -47, far below K/b = 5."""
        inst = make_instance(horizon=1, K=5, h=1, b=1, c=0.9, means=[3],
                             std_devs=[0.0])
        sol = solve_sdp(inst)
        assert sol.policy.pair(1)[1] == 3.0
        assert abs(sol.policy.pair(1)[0] - -47.0) <= sol.grid.step

    def test_default_grid_solves_unit_cost_grid(self):
        """Every 8-period grid instance at c = 4.0 solves on its default
        grid."""
        for instance in build_instances(BenchmarkConfig(horizon=8,
                                                        unit_cost=4.0)):
            solve_sdp(instance)


class TestCostToGo:
    def test_off_grid_rejected(self, solved4):
        with pytest.raises(ValueError, match="not on the grid"):
            cost_to_go(solved4, 1, 14.3)

    def test_period_out_of_range(self, solved4):
        with pytest.raises(ValueError, match="horizon"):
            cost_to_go(solved4, 5, 14.0)

    @pytest.mark.parametrize("read, period", [
        (lambda sol, t: sol.g_minimum(t), 0),
        (lambda sol, t: sol.g_minimum(t), -1),
        (lambda sol, t: sol.reorder_cost(t), 99),
        (lambda sol, t: cost_to_go(sol, t, 14.0), True),
        (lambda sol, t: cost_to_go(sol, t, 14.0), 1.5),
    ], ids=["g_minimum-0", "g_minimum-neg", "reorder_cost-99",
            "cost_to_go-bool", "cost_to_go-float"])
    def test_wrong_period_named(self, solved4, read, period):
        with pytest.raises(ValueError, match=f"got {period!r}$"):
            read(solved4, period)

    def test_extract_policy_matches_solution(self, solved4):
        pol = policy_from_tables(solved4.instance, solved4.grid,
                                 solved4.g_tables)
        assert pol.reorder_points == solved4.policy.reorder_points
        assert pol.order_up_to_levels == solved4.policy.order_up_to_levels
        assert all(s <= S for s, S in zip(pol.reorder_points,
                                          pol.order_up_to_levels))


class TestKConvexityCheck:
    def test_convex_function_passes(self):
        xs = np.linspace(-10, 10, 201)
        ok, viol = check_k_convexity(xs ** 2, 0.1, 0.0)
        assert ok and viol is None

    def test_constructed_dip_fails(self):
        # convex bowl with a K-exceeding bump carved in the middle
        xs = np.linspace(-10, 10, 201)
        g = xs ** 2
        g[100:110] -= 60.0
        ok, viol = check_k_convexity(g, 0.1, 5.0)
        assert not ok
        assert viol is not None and len(viol) == 4


def test_g_curve_dump(tmp_path, solved4):
    path = tmp_path / "g.csv"
    write_g_curve(solved4, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,y,G"
    assert len(lines) == 1 + 4 * solved4.grid.size
