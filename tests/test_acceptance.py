"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values (run with -s to see them on success).

Criterion 9 runs a 25-period instance through the gap study with both
heuristics, checks that the long-horizon LP export still works, and declares
the one intentionally non-reproducible piece: published wall-clock tables
are hardware-specific and are not checked anywhere. The full 270-instance
gap studies, 8- and 25-period, are optional; set SSPOLICY_FULL_BENCHMARK=1
to include them.
"""
import os
import statistics
import time

import numpy as np
import pytest

from lp_support import solve_lp
from oracle_support import brute_force_submodel
from sspolicy.domain import make_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import HeuristicConfig, bs_policy, mp_policy
from sspolicy.loss import (approximation_error, complementary_loss, loss,
                           make_partition, piecewise_loss)
from sspolicy.model import (build_joint, build_minlp_S, build_minlp_s,
                            build_segments)
from sspolicy.sdp import check_k_convexity, cost_to_go, solve_sdp
from sspolicy.simulate import simulate_policy
from sspolicy.solver import solve_exact
from sspolicy.testbed import BenchmarkConfig, build_instances, run_benchmark

TABLE_S = (15.0008, 29.0161, 58.1089, 29.0161)
TABLE_BIG_S = (70.2658, 53.9768, 116.5530, 53.9768)
TABLE_COST = (366.138, 311.369, 193.338, 118.031)


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def table_config():
    return HeuristicConfig(segments=11, strategy="minimax", bs_step_size=0.01)


@pytest.fixture(scope="module")
def sdp4(example4):
    return solve_sdp(example4)


@pytest.fixture(scope="module")
def mp4(example4, table_config):
    return mp_policy(example4, table_config)


@pytest.fixture(scope="module")
def bs4(example4, table_config):
    return bs_policy(example4, table_config)


def test_criterion_1_sdp_worked_example(example4):
    start = time.perf_counter()
    sol = solve_sdp(example4)
    elapsed = time.perf_counter() - start
    s1, big_s1 = sol.policy.pair(1)
    assert (s1, big_s1) == (14.0, 70.0)
    g_min = sol.g_minimum(1)
    assert g_min == pytest.approx(262.5839, abs=0.5)
    # the published reorder cost is the indifference value K + G_1(S_1);
    # the grid value at s_1 = 14 sits one step of G-variation above it
    # (the published curve itself reads 366.166 at 14)
    reorder_cost = sol.reorder_cost(1)
    assert reorder_cost == pytest.approx(362.5839, abs=0.5)
    raw_at_14 = cost_to_go(sol, 1, 14.0)
    assert raw_at_14 == pytest.approx(366.166, abs=0.5)
    step_variation = abs(raw_at_14 - cost_to_go(sol, 1, 15.0))
    assert abs(raw_at_14 - reorder_cost) <= step_variation
    assert elapsed < 10.0
    print(f"\n[acceptance] criterion 1 PASS: (s1,S1)=(14,70), "
          f"G1(S1)={g_min:.4f}, K+G1(S1)={reorder_cost:.4f}, "
          f"G1(14)={raw_at_14:.4f}, {elapsed:.2f}s")


def test_criterion_2_joint_heuristic_table(example4, table_config):
    start = time.perf_counter()
    policy = mp_policy(example4, table_config)
    elapsed = time.perf_counter() - start
    for t, (got, want) in enumerate(zip(policy.reorder_points, TABLE_S), 1):
        assert got == pytest.approx(want, abs=1.5), f"s_{t}"
    for t, (got, want) in enumerate(zip(policy.order_up_to_levels,
                                        TABLE_BIG_S), 1):
        assert got == pytest.approx(want, abs=1.5), f"S_{t}"
    for t, (got, want) in enumerate(zip(policy.costs, TABLE_COST), 1):
        assert got == pytest.approx(want, abs=3), f"cost_{t}"
    assert elapsed < 60.0
    print(f"\n[acceptance] criterion 2 PASS: joint heuristic within "
          f"tolerance of the published parameters, {elapsed:.2f}s")


def test_criterion_3_binary_search_table(bs4, mp4):
    for t, (got, want) in enumerate(zip(bs4.reorder_points,
                                        (15.0, 29.01, 58.1, 29.01)), 1):
        assert got == pytest.approx(want, abs=1.5), f"s_{t}"
    for t, (got, want) in enumerate(zip(bs4.order_up_to_levels,
                                        TABLE_BIG_S), 1):
        assert got == pytest.approx(want, abs=1.5), f"S_{t}"
    for t, (got, want) in enumerate(zip(bs4.costs, TABLE_COST), 1):
        assert got == pytest.approx(want, abs=3), f"cost_{t}"
    assert bs4.flagged_periods == ()
    for t, (a, b) in enumerate(zip(bs4.reorder_points, mp4.reorder_points), 1):
        assert abs(a - b) <= 0.5, f"period {t}: BS {a} vs MP {b}"
    print("\n[acceptance] criterion 3 PASS: binary search matches the "
          "published table and the joint heuristic in every period")


@pytest.mark.parametrize("pattern,published_mean", [("STA", 0.23), ("RAND", 0.16)])
def test_criterion_4_gap_slices(pattern, published_mean):
    config = BenchmarkConfig(patterns=(pattern,), methods=("bs",),
                             replications=10000, segments=11,
                             strategy="minimax", seed=20240101)
    report = run_benchmark(config)
    gaps = report.ok_gaps("bs")
    assert len(gaps) == 27
    mean = statistics.mean(gaps)
    median = statistics.median(gaps)
    assert mean <= 1.0
    assert median <= 0.5
    print(f"\n[acceptance] criterion 4 PASS ({pattern}): mean gap "
          f"{mean:.3f}% (published {published_mean}%), median {median:.3f}% "
          f"over {len(gaps)} instances")


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="full 270-instance studies are optional; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon,methods", [(8, ("bs",)), (25, ("bs", "mp"))],
                         ids=["8-period", "25-period"])
def test_criterion_4_full_grid_optional(horizon, methods):
    config = BenchmarkConfig(horizon=horizon, methods=methods,
                             replications=10000, segments=11,
                             strategy="minimax", seed=20240101)
    report = run_benchmark(config, jobs=os.cpu_count() or 1)
    for method in methods:
        gaps = report.ok_gaps(method)
        assert len(gaps) == 270, method
        mean = statistics.mean(gaps)
        assert mean <= 1.0, method
        print(f"\n[acceptance] criterion 4 (full, {horizon} periods) PASS: "
              f"{method} mean gap {mean:.3f}% over 270 instances")


def test_criterion_5_loss_suite():
    mean, sd = 37.5, 12.25
    xs = np.linspace(mean - 8 * sd, mean + 8 * sd, 10001)
    ident = np.max(np.abs(complementary_loss(xs, mean, sd)
                          - (xs - mean + loss(xs, mean, sd))))
    assert ident <= 1e-9
    for n in (2, 6, 11):
        pw = piecewise_loss(make_partition(n), mean, sd)
        true = complementary_loss(xs, mean, sd)
        lo = pw.lower(xs)
        assert np.all(lo <= true + 1e-9), f"lower bound fails at N={n}"
        assert np.all(lo + pw.error_bound >= true - 1e-9), \
            f"upper bound fails at N={n}"
    e6 = approximation_error(make_partition(6))
    e11 = approximation_error(make_partition(11))
    assert e6 > e11
    print(f"\n[acceptance] criterion 5 PASS: identity {ident:.2e}, sandwich "
          f"holds for N in (2,6,11), e_W 6->11: {e6:.6f} -> {e11:.6f}")


def test_criterion_6_backend_oracle_equivalence(example4):
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for trial in range(20):
        T = int(rng.integers(1, 7))
        K = float(np.round(rng.uniform(0, 150), 2))
        h = float(np.round(rng.uniform(0.5, 2.0), 2))
        b = float(np.round(rng.uniform(2, 15), 2))
        c = float(np.round(rng.uniform(0, 2.0), 2)) if trial % 3 == 0 else 0.0
        means = np.round(rng.uniform(0, 30, T), 1)
        cv = float(rng.uniform(0.05, 0.4))
        inst = make_instance(horizon=T, K=K, h=h, b=b, c=c, means=means, cv=cv)
        segs = build_segments(inst, segments=int(rng.integers(3, 8)))
        kind = trial % 3
        if kind == 0:
            model = build_minlp_s(inst, segs)
            oracle = brute_force_submodel(inst, segs, first_order=False)
        elif kind == 1:
            x0 = float(np.round(rng.uniform(-30, 60), 2))
            model = build_minlp_s(inst, segs, initial_inventory=x0)
            oracle = brute_force_submodel(inst, segs, first_order=False,
                                          fixed_i0=x0)
        else:
            model = build_minlp_S(inst, segs)
            oracle = brute_force_submodel(inst, segs, first_order=True)
        diff = abs(solve_exact(model).objective - oracle[0])
        worst = max(worst, diff)
        assert diff <= 5e-3, f"trial {trial}"

    # external MIP solver (HiGHS via scipy.optimize.milp) fed the LP file
    segs = build_segments(example4, segments=10, strategy="minimax")
    model = build_joint(example4, segs)
    external_obj, _ = solve_lp(render_lp(model))
    exact_obj = solve_exact(model).objective
    assert external_obj == pytest.approx(exact_obj, abs=1e-4)
    print(f"\n[acceptance] criterion 6 PASS: worst oracle deviation "
          f"{worst:.2e} over 20 instances; external-solver joint objective "
          f"diff {abs(external_obj - exact_obj):.2e}")


def test_criterion_7_simulator_consistency(example4, sdp4):
    sim = simulate_policy(example4, sdp4.policy, replications=10**6, seed=7)
    diff = abs(sim.mean - sdp4.expected_cost)
    assert diff <= 3 * sim.standard_error
    print(f"\n[acceptance] criterion 7 PASS: |sim - C1| = {diff:.4f} "
          f"<= 3*SE = {3 * sim.standard_error:.4f} at 1e6 replications")


def test_criterion_8_k_convexity_sta_slice():
    config = BenchmarkConfig(patterns=("STA",))
    checked = 0
    for inst in build_instances(config):
        sol = solve_sdp(inst)
        for t in range(1, inst.horizon + 1):
            ok, violation = check_k_convexity(sol.g_tables[t - 1],
                                              sol.grid.step,
                                              inst.costs.fixed)
            assert ok, f"{inst.name} period {t}: {violation}"
            checked += 1
    print(f"\n[acceptance] criterion 8 PASS: K-convexity holds for "
          f"{checked} cost-to-go tables across the STA slice")


def test_criterion_9_declared_limits(tmp_path):
    """25-period instances run through the gap study like 8-period ones;
    wall-clock tables are not reproduced anywhere (hardware-specific)."""
    config = BenchmarkConfig(horizon=25, patterns=("STA",),
                             fixed_costs=(500.0,), penalty_costs=(10.0,),
                             cvs=(0.1,), methods=("bs", "mp"),
                             replications=10000, segments=11,
                             strategy="minimax", seed=20240101)
    report = run_benchmark(config)
    assert [(r.method, r.status) for r in report.results] == \
        [("bs", "ok"), ("mp", "ok")]
    for row in report.results:
        se_pct = 100.0 * row.sim_stderr / row.oracle_cost
        assert -3.0 * se_pct <= row.gap_pct < 1.0, row.method
    # the export path works at the long horizon too
    from sspolicy.export import export_lp
    (inst,) = build_instances(config)
    segs = build_segments(inst, segments=4)
    path = tmp_path / "suffix_01_s.lp"
    export_lp(build_minlp_s(inst, segs), path)
    assert path.stat().st_size > 0
    gaps = ", ".join(f"{r.method} {r.gap_pct:.3f}%" for r in report.results)
    print(f"\n[acceptance] criterion 9 PASS: 25-period STA gaps {gaps}; "
          "LP export works; wall-clock tables are declared out of scope")
