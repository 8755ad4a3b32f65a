import dataclasses
import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspolicy.solver as solver_module
from lp_support import solve_lp
from oracle_support import (
    EnumerationEngine, PerPieceEngine, brute_force_submodel, full_enumeration,
    reference_cycle, reference_priced, reference_relaxation,
    reference_solution, reference_verify_assignment,
)
from sspolicy.domain import make_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import (
    HeuristicConfig, bs_policy, cycle_table, mp_policy,
)
from sspolicy.model import (
    build_joint, build_minlp_s, build_minlp_S, build_segments, level_bounds,
    verify_assignment,
)
from sspolicy.solver import (
    ConvexPWL, CycleTable, ExactBackend, SolverError,
    _SubmodelEngine, default_bounds, import_solution, solve_exact,
)
from sspolicy.testbed import BenchmarkConfig, build_instances


def _engine(model):
    """The no-order engine solve_exact searches for a model."""
    return _SubmodelEngine(CycleTable(model.instance, model.segments).suffix(1),
                           level_bounds(model.instance, model.big_m))


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def segments4(example4):
    return build_segments(example4, segments=10, strategy="minimax")


class TestConvexPWL:
    def test_evaluate_and_min_at_kink(self):
        # f(x) = max(-x, 2x - 3): kink at x = 1
        f = ConvexPWL(slope=-1.0, const=0.0, kinks=[1.0], deltas=[3.0])
        assert f(0.0) == 0.0
        assert f(2.0) == pytest.approx(1.0)
        x, v = f.minimize(-10, 10)
        assert (x, v) == (1.0, pytest.approx(-1.0))

    def test_flat_minimum_returns_midpoint(self):
        # slope -1 until 0, flat to 4, then +1
        f = ConvexPWL(slope=-1.0, const=0.0, kinks=[0.0, 4.0], deltas=[1.0, 1.0])
        x, v = f.minimize(-10, 10)
        assert x == 2.0
        assert v == 0.0

    def test_clamped_to_domain(self):
        f = ConvexPWL(slope=1.0, const=0.0)
        assert f.minimize(3.0, 9.0) == (3.0, 3.0)

    def test_shift_and_sum(self):
        f = ConvexPWL(slope=0.0, const=0.0, kinks=[0.0], deltas=[1.0])
        g = f.shifted(5.0)          # g(x) = f(x - 5)
        assert g(5.0) == 0.0
        assert g(7.0) == 2.0
        s = f.plus(g)
        assert s(7.0) == f(7.0) + g(7.0)


class TestDeterminism:
    def test_identical_results(self, example4, segments4):
        model = build_joint(example4, segments4)
        a = solve_exact(model)
        b = solve_exact(model)
        assert a.objective == b.objective
        assert a.assignment == b.assignment

    def test_bound_relaxation_never_worsens(self, example4, segments4):
        model = build_minlp_s(example4, segments4)
        base = solve_exact(model).objective
        relaxed = build_minlp_s(example4, segments4)
        for col, name in enumerate(relaxed.names):
            if name.startswith("I_") and relaxed.lb[col] != relaxed.ub[col]:
                relaxed.lb[col] -= 100
                relaxed.ub[col] += 100
        assert solve_exact(relaxed).objective <= base + 1e-9


class TestOracleEquivalence:
    def test_twenty_randomized_instances(self):
        """solve_exact vs pattern enumeration + dense grid (0.25 step plus
        breakpoint refinement), tolerance 5e-3."""
        rng = np.random.default_rng(20240817)
        for trial in range(20):
            T = int(rng.integers(1, 7))
            K = float(np.round(rng.uniform(0, 150), 2))
            h = float(np.round(rng.uniform(0.5, 2.0), 2))
            b = float(np.round(rng.uniform(2, 15), 2))
            c = float(np.round(rng.uniform(0, 2.0), 2)) if trial % 3 == 0 else 0.0
            means = np.round(rng.uniform(0, 30, T), 1)
            cv = float(rng.uniform(0.05, 0.4))
            inst = make_instance(horizon=T, K=K, h=h, b=b, c=c,
                                 means=means, cv=cv)
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
            res = solve_exact(model)
            assert res.status == "optimal"
            assert res.objective == pytest.approx(oracle[0], abs=5e-3), \
                f"trial {trial}: T={T} K={K} h={h} b={b} c={c}"


@st.composite
def _submodel_cases(draw):
    """Small instances with the search's edge cases: T = 1, K = 0, c > 0,
    zero-sd periods, and free, pinned (also negative) or forced levels."""
    T = draw(st.integers(1, 6))
    K = draw(st.sampled_from([0.0, 40.0, 150.0]))
    h = draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2)))
    b = draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2)))
    c = draw(st.sampled_from([0.0, 0.0, 1.5]))
    means = draw(st.lists(st.floats(0, 30).map(lambda v: round(v, 1)),
                          min_size=T, max_size=T))
    cvs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4]),
                        min_size=T, max_size=T))
    inst = make_instance(horizon=T, K=K, h=h, b=b, c=c, means=means,
                         std_devs=[m * v for m, v in zip(means, cvs)])
    segs = build_segments(inst, segments=draw(st.integers(3, 7)))
    kind = draw(st.sampled_from(["free", "pinned", "forced"]))
    pin = None
    if kind == "pinned":
        pin = draw(st.floats(-30, 60).map(lambda v: round(v, 2)))
    return inst, segs, kind, pin


class TestPatternSearch:
    @settings(max_examples=60, deadline=None)
    @given(case=_submodel_cases())
    def test_matches_full_enumeration(self, case):
        """The bounded search returns exactly the full enumeration's winner,
        and its cost is the brute-force optimum; the forced-order model's
        optimum is the free one plus K at the same levels."""
        inst, segs, kind, pin = case
        model = build_minlp_s(inst, segs, initial_inventory=pin)
        reference = full_enumeration(_engine(model), pin)
        found, nodes = _engine(model).enumerate(pin)
        assert 1 <= nodes <= 2 ** (inst.horizon - 1)
        assert found[0] == reference[0]
        assert found[1] == reference[1]
        assert np.array_equal(found[2], reference[2])
        forced = kind == "forced"
        oracle = brute_force_submodel(inst, segs, first_order=forced,
                                      fixed_i0=pin)
        cost = found[0] + inst.costs.fixed if forced else found[0]
        assert cost == pytest.approx(oracle[0], abs=5e-3)
        if forced:
            res = solve_exact(build_minlp_S(inst, segs))
            assert res.objective == pytest.approx(cost, abs=1e-6)
            assert res.value("I0_S") == found[2][0]
            assert res.value("delta_S_1") == 1.0


@st.composite
def _policy_cases(draw):
    """Small instances for the shared cycle table: T = 1-6, K = 0, c > 0,
    zero-sd periods, zero-mean tails and negative initial inventory."""
    T = draw(st.integers(1, 6))
    means = draw(st.lists(st.floats(0, 30).map(lambda v: round(v, 1)),
                          min_size=T, max_size=T))
    tail = draw(st.integers(0, min(2, T - 1)))
    means = means[:T - tail] + [0.0] * tail
    cvs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4]),
                        min_size=T, max_size=T))
    inst = make_instance(
        horizon=T, K=draw(st.sampled_from([0.0, 40.0, 150.0])),
        h=draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2))),
        b=draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2))),
        c=draw(st.sampled_from([0.0, 1.5])), means=means,
        std_devs=[m * v for m, v in zip(means, cvs)],
        initial_inventory=draw(st.sampled_from([0.0, -12.5, 20.0])))
    return inst, HeuristicConfig(segments=draw(st.integers(3, 7)))


def _same_solution(a, b):
    return a[0] == b[0] and a[1] == b[1] and np.array_equal(a[2], b[2])


class TestSharedCycleTable:
    @settings(max_examples=30, deadline=None)
    @given(case=_policy_cases())
    def test_suffixes_match_fresh_models(self, case):
        """Every suffix solved from the instance's one table gives exactly
        what a model built from the suffix's own segments gives."""
        inst, config = case
        partition = dict(segments=config.cells, strategy=config.strategy)
        table = CycleTable(inst, build_segments(inst, **partition))
        mp = mp_policy(inst, config)
        for k in range(1, inst.horizon + 1):
            suffix = inst.suffix(k)
            segs = build_segments(suffix, **partition)
            view = table.suffix(k)
            assert dict(view) == segs  # the premise: re-keyed pieces agree
            shared = ExactBackend().evaluator(view)
            fresh = _engine(build_minlp_s(suffix, segs))
            best = shared.free_minimum()
            assert _same_solution(best, fresh.free_minimum())
            s_up = float(best[2][0])
            k_over_b = suffix.costs.fixed / suffix.costs.penalty
            for x in (s_up, s_up - 0.5 * k_over_b, s_up - k_over_b - 1.0,
                      0.0, -7.25):
                assert _same_solution(shared.cost_at(x), fresh.cost_at(x))
            assert shared.nodes == fresh.nodes  # the same bounds pruned
            res = solve_exact(build_joint(suffix, segs))
            assert mp.pair(k) == (res.value("I0_s"), res.value("I0_S"))
            assert mp.costs[k - 1] == res.value("C_S")


def _same_float(got, ref):
    """Equal bits and equal type (a numpy scalar's repr names its type)."""
    return float(got).hex() == float(ref).hex() and repr(got) == repr(ref)


def _assert_same_pwl(got, ref, where):
    assert _same_float(got.slope, ref.slope), where
    assert _same_float(got.const, ref.const), where
    for a, b in ((got.kinks, ref.kinks), (got.deltas, ref.deltas)):
        assert (a.dtype, a.shape) == (b.dtype, b.shape), where
        assert a.tobytes() == b.tobytes(), where  # zeros' signs included


def _assert_table_matches_reference(instance, segments):
    """Every field of both `first` records of every cycle of the table:
    the priced cost, argmin and min against adding the cycle's pieces one
    at a time and ConvexPWL.argmin's own sort, the demand fields against
    the same sum's; the shared arrays refuse writes."""
    table = CycleTable(instance, segments)
    T = instance.horizon
    for j in range(1, T + 1):
        for e in range(j, T + 1):
            demand = reference_cycle(instance, segments, j, e)[1:]
            for first in (True, False):
                got = table.cycle(j, e, first)
                ref = reference_priced(instance, segments, j, e, first) + demand
                where = (j, e, first)
                assert len(got) == len(ref) == 6, where
                _assert_same_pwl(got[0], ref[0], where)
                assert not (got[0].kinks.flags.writeable
                            or got[0].deltas.flags.writeable)
                # argmin, min, mean demand, largest and smallest shift
                assert all(_same_float(a, b) for a, b in zip(got[1:], ref[1:])), where


class TestCycleTableArrays:
    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(1, 9), K=st.sampled_from([0.0, 40.0]),
           c=st.sampled_from([0.0, 1.5]), n_seg=st.integers(3, 21),
           strategy=st.sampled_from(["equal-probability", "minimax"]),
           data=st.data())
    def test_matches_reference(self, T, K, c, n_seg, strategy, data):
        """K = 0, c > 0, zero-sd and zero-mean periods, 3..21 linear
        segments, and dicts whose pieces differ in segment count."""
        means = data.draw(st.lists(
            st.just(0.0) | st.floats(0, 30).map(lambda v: round(v, 1)),
            min_size=T, max_size=T))
        cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]),
                                 min_size=T, max_size=T))
        h = data.draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2)))
        b = data.draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2)))
        inst = make_instance(T, K=K, h=h, b=b, c=c, means=means,
                             std_devs=[m * v for m, v in zip(means, cvs)])
        segs = build_segments(inst, segments=n_seg - 1, strategy=strategy)
        if data.draw(st.booleans()):
            other = build_segments(inst, segments=data.draw(st.integers(2, 20)),
                                   strategy=strategy)
            for key in data.draw(st.sets(st.sampled_from(sorted(segs)))):
                segs[key] = other[key]
        _assert_table_matches_reference(inst, segs)

    def test_no_unit_cost_prices_once(self, example4, segments4):
        """With c = 0 both `first` keys hold one record."""
        assert example4.costs.unit == 0.0
        table = CycleTable(example4, segments4)
        assert table.cycle(2, 3, True) is table.cycle(2, 3, False)
        assert table.cycle(1, 4, True) is table.cycle(1, 4, False)


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every cycle of both 270-instance grids (minutes); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_cycle_table_matches_reference(horizon):
    config = BenchmarkConfig(horizon=horizon)
    hc = config.heuristic_config()
    for inst in build_instances(config):
        _assert_table_matches_reference(inst, build_segments(
            inst, segments=hc.cells, strategy=hc.strategy))


class TestZeroStdDev:
    """A period with zero demand variance is a valid instance."""

    @pytest.fixture(scope="class")
    def instance(self):
        return make_instance(3, K=100, h=1, b=10, c=0, means=[20, 30, 0],
                             std_devs=[5, 7, 0])

    @pytest.fixture(scope="class")
    def policies(self, instance):
        return bs_policy(instance), mp_policy(instance)

    def test_both_heuristics_solve(self, policies):
        bs, mp = policies
        for policy in (bs, mp):
            assert policy.horizon == 3
            assert all(s <= big_s for s, big_s in
                       zip(policy.reorder_points, policy.order_up_to_levels))
        # no demand left in period 3: order up to 0, reorder at -K/b
        assert mp.pair(3) == pytest.approx((-10.0, 0.0), abs=1e-6)

    def test_binary_search_brackets_never_order_root(self, policies):
        """The bisection's lower bound sits below -K/b, so bs finds the
        period-3 root within one 0.1 step instead of stopping at 0."""
        bs, mp = policies
        assert abs(bs.reorder_points[2] - mp.reorder_points[2]) <= 0.1
        assert bs.flagged_periods == ()

    @pytest.mark.parametrize("pin", [None, -12.5, 35.0])
    def test_s_model_matches_brute_force(self, instance, pin):
        segs = build_segments(instance, segments=11)
        res = solve_exact(build_minlp_s(instance, segs, initial_inventory=pin))
        oracle = brute_force_submodel(instance, segs, first_order=False,
                                      fixed_i0=pin)
        assert res.objective == pytest.approx(oracle[0], abs=5e-3)


class TestJointSolve:
    def test_link_satisfied_and_ordered(self, example4, segments4):
        res = solve_exact(build_joint(example4, segments4))
        assert abs(res.value("G_s") - res.value("C_S")) <= 1e-6
        assert res.value("I0_s") <= res.value("I0_S") + 1e-9
        assert round(res.value("delta_S_1")) == 1
        assert round(res.value("delta_s_1")) == 0

    def test_zero_fixed_cost_root_is_order_up_to(self, segments4, example4):
        inst = make_instance(horizon=4, K=0, h=1, b=10, c=0,
                             means=[20, 40, 60, 40], cv=0.25)
        segs = build_segments(inst, segments=10, strategy="minimax")
        res = solve_exact(build_joint(inst, segs))
        assert res.value("I0_s") == pytest.approx(res.value("I0_S"), abs=1e-9)

    def test_shared_engine_counts_only_added_patterns(self, example4,
                                                     segments4):
        """A joint solve on a table view reads the table's engine: its node
        count is what it added, and a free minimum searched before is not
        searched again. A pinned model keeps a private engine."""
        fresh = solve_exact(build_joint(example4, segments4))
        table = CycleTable(example4, segments4)
        view = table.suffix(1)
        engine = ExactBackend().evaluator(view)
        assert ExactBackend().evaluator(table.suffix(1)) is engine
        free = engine.free_minimum()
        assert engine.free_minimum() is free
        searched = engine.nodes
        assert searched > 0
        shared = solve_exact(build_joint(view.instance, view))
        assert shared.node_count == fresh.node_count - searched
        assert shared.node_count == engine.nodes - searched
        assert shared.assignment == fresh.assignment
        work = table.work()
        solve_exact(build_minlp_s(view.instance, view, initial_inventory=35.0))
        assert table.work() == work

    def test_single_pattern_matches_subproblem(self, example4, segments4):
        """T=1 forced-order model has one pattern: the convex subproblem."""
        inst = example4.suffix(4)
        segs = build_segments(inst, segments=10, strategy="minimax")
        model = build_minlp_S(inst, segs)
        res = solve_exact(model)
        assert res.node_count == 1
        pw = segs[(1, 1)]
        ys = np.unique(np.concatenate((np.linspace(30, 90, 6001),
                                       np.asarray(pw.breakpoints))))
        cost = 100 + 1 * pw.upper(ys) + 10 * (pw.upper(ys) - (ys - 40.0))
        assert res.objective == pytest.approx(cost.min(), abs=1e-6)


def _reorder_root(engine, suffix):
    """The engine's reorder root for a suffix's free optimum plus K."""
    free = engine.free_minimum()
    s_up = float(free[2][0])
    target = free[0] + suffix.costs.fixed
    return engine.reorder_root(target, s_up), target, s_up


def _assert_same_root(engine, target, root, bisected):
    """`root` is the bisection's root within 1e-9, or the pattern search's
    cost stays within 1e-7 of the target all the way between the two. The
    bisection accepts a secant point whose cost is within 1e-7 of the
    target, which can sit past 1e-9 from a root at a kink, and where the
    cost meets the target along a whole stretch, either end is a root up
    to rounding."""
    x = bisected[0]
    if abs(root - x) <= 1e-9:
        return
    for v in np.linspace(root, x, 5):
        assert abs(engine.enumerate(v)[0][0] - target) <= 1e-7


class TestEnvelope:
    """The pinned-first-cycle envelope against the pattern search."""

    @settings(max_examples=40, deadline=None)
    @given(case=_policy_cases())
    def test_certified_answers_match_search(self, case):
        """Where a piece is certified, its cost is enumerate's optimum and
        solve_pattern's cost and levels for its pattern; the reorder root
        is the bisection root over enumerate alone, with or without the
        certificates."""
        inst, config = case
        table = CycleTable(inst, build_segments(
            inst, segments=config.cells, strategy=config.strategy))
        for k in range(1, inst.horizon + 1):
            view = table.suffix(k)
            engine = ExactBackend().evaluator(view)
            (root, best), target, s_up = _reorder_root(engine, view.instance)
            assert best[0] == pytest.approx(target, abs=1e-7)
            pins = {s_up, root, root - 1.0, 0.0}
            for piece in engine.relaxation.pieces:
                if math.isfinite(piece.limit):  # both sides of U_e
                    pins.update((piece.limit - 0.5, piece.limit,
                                 piece.limit + 0.5))
            for x in sorted(pins):
                certified = engine._certified_at(x)
                if certified is None:
                    continue
                searched, _ = engine.enumerate(x)
                assert certified[0] == pytest.approx(searched[0], rel=1e-9)
                cost, levels, _ = engine.solve_pattern(certified[1], x)
                assert cost == pytest.approx(certified[0], rel=1e-9)
                assert np.allclose(levels, certified[2], rtol=0, atol=1e-9)
            for x in np.linspace(root, s_up, 6)[1:]:  # nothing larger
                assert engine.enumerate(x)[0][0] < target + 1e-9
            bounds = (engine.inv_lo, engine.inv_hi)
            reference = _reorder_root(EnumerationEngine(view, bounds),
                                      view.instance)[0]
            _assert_same_root(engine, target, root, reference)
            emptied = _SubmodelEngine(view, bounds)  # private: limits cut
            for piece in emptied.relaxation.pieces:
                piece.limit = -math.inf
            fallback = _reorder_root(emptied, view.instance)[0]
            assert emptied.certified == 0
            _assert_same_root(engine, target, root, fallback)

    def test_forced_fallback_is_counted_and_logged(self, example4, segments4,
                                                   caplog):
        engine = _engine(build_joint(example4, segments4))
        (root, _), _, _ = _reorder_root(engine, example4)
        assert (engine.certified, engine.fallbacks) == (2, 0)
        forced = _engine(build_joint(example4, segments4))
        for piece in forced.relaxation.pieces:
            piece.limit = -math.inf
        with caplog.at_level(logging.DEBUG, logger="sspolicy.solver"):
            (again, _), _, _ = _reorder_root(forced, example4)
        assert (forced.certified, forced.fallbacks) == (0, 1)
        assert again == pytest.approx(root, abs=1e-9)
        records = [r for r in caplog.records if r.name == "sspolicy.solver"]
        assert len(records) == 1
        assert "4-period suffix" in records[0].getMessage()

    def test_gap8_instance_certifies_every_suffix(self, caplog):
        """On an 8-period grid instance every reorder root and every bs
        bisection step is answered from the envelope."""
        config = BenchmarkConfig(horizon=8)
        hc = config.heuristic_config()
        instance = build_instances(config)[0]
        table = CycleTable(instance, build_segments(
            instance, segments=hc.cells, strategy=hc.strategy))
        for k in range(1, 9):
            view = table.suffix(k)
            engine = _SubmodelEngine(view, default_bounds(view.instance))
            _reorder_root(engine, view.instance)
            assert (engine.certified, engine.fallbacks) == (2, 0), k
        calls = []

        class Counting(ExactBackend):
            def evaluator(self, view):
                engine = super().evaluator(view)
                search = engine.cost_at

                def cost_at(x):
                    calls.append(engine)
                    return search(x)

                engine.cost_at = cost_at
                return engine

        bs_policy(instance, hc, backend=Counting())
        engines = set(calls)
        assert len(engines) == 8
        assert sum(engine.certified for engine in engines) == len(calls)
        with caplog.at_level(logging.DEBUG, logger="sspolicy.solver"):
            mp_policy(instance, hc)
        assert not [r for r in caplog.records if r.name == "sspolicy.solver"]


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="full 270-instance grids are optional; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_envelope_matches_enumeration(horizon, monkeypatch):
    """bs policies are repr-equal to an enumerate-only engine's; mp S_k and
    linked costs are bit-equal and its s_k within 1e-9."""
    config = BenchmarkConfig(horizon=horizon)
    hc = config.heuristic_config()
    instances = build_instances(config)
    worst = 0.0
    for instance in instances:
        bs, mp = bs_policy(instance, hc), mp_policy(instance, hc)
        with monkeypatch.context() as patch:
            patch.setattr(solver_module, "_SubmodelEngine", EnumerationEngine)
            bs_ref, mp_ref = bs_policy(instance, hc), mp_policy(instance, hc)
        assert repr(bs) == repr(bs_ref), instance.name
        assert mp.order_up_to_levels == mp_ref.order_up_to_levels, instance.name
        assert mp.costs == mp_ref.costs, instance.name
        shift = max(abs(a - b) for a, b in
                    zip(mp.reorder_points, mp_ref.reorder_points))
        assert shift <= 1e-9, instance.name
        worst = max(worst, shift)
    print(f"\n[solver] {horizon} periods: bs equal and mp within "
          f"{worst:.2e} of the enumerate-only engine on {len(instances)} "
          f"instances")


@st.composite
def _envelope_cases(draw):
    """Instances for the envelope reads and the relaxation: T = 1-8, K = 0,
    c > 0, zero-sd and zero-mean periods."""
    T = draw(st.integers(1, 8))
    means = draw(st.lists(
        st.just(0.0) | st.floats(0, 30).map(lambda v: round(v, 1)),
        min_size=T, max_size=T))
    cvs = draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.4]),
                        min_size=T, max_size=T))
    inst = make_instance(
        horizon=T, K=draw(st.sampled_from([0.0, 40.0, 150.0])),
        h=draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2))),
        b=draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2))),
        c=draw(st.sampled_from([0.0, 1.5])), means=means,
        std_devs=[m * v for m, v in zip(means, cvs)])
    return inst, HeuristicConfig(segments=draw(st.integers(3, 12)))


def _same_answer(got, ref) -> bool:
    """Two cost_at answers (or None) with equal bits: cost, pattern,
    levels and cycles."""
    if ref is None or got is None:
        return got is ref
    return (_same_float(got[0], ref[0]) and got[1] == ref[1]
            and got[2].dtype == ref[2].dtype
            and got[2].tobytes() == ref[2].tobytes() and got[3] == ref[3])


def _assert_reads_match(view, extra=()):
    """The engine's certified reads and reorder root are hex-equal to
    PerPieceEngine's, at the suffix's order-up-to level, around every
    certificate limit and pin-domain end, at negative levels and at
    `extra`; the counters agree."""
    bounds = default_bounds(view.instance)
    fast, slow = _SubmodelEngine(view, bounds), PerPieceEngine(view, bounds)
    best = fast.free_minimum()
    assert _same_answer(best, slow.free_minimum())
    s_up = float(best[2][0])
    target = best[0] + view.instance.costs.fixed
    pins = {s_up, s_up - 1.0, 0.0, -7.25, -s_up - 40.0, *extra}
    pieces = fast.relaxation.pieces
    kinks = fast.relaxation.kinks
    for piece in pieces:
        # every piece's kinks are a prefix of the hinge's
        assert np.shares_memory(piece.cost.kinks, kinks)
        assert piece.cost.kinks.tobytes() == kinks[:len(piece.cost.kinks)].tobytes()
        for v in (piece.limit, piece.lo, piece.hi):
            if math.isfinite(v):
                pins.update((v - 0.5, v, v + 0.5))
    for x in sorted(pins):
        assert _same_answer(fast._certified_at(x), slow._certified_at(x)), x
    root, answer = fast.reorder_root(target, s_up)
    root_ref, answer_ref = slow.reorder_root(target, s_up)
    assert _same_float(root, root_ref)
    assert _same_answer(answer, answer_ref)
    assert (fast.nodes, fast.certified, fast.fallbacks) == \
        (slow.nodes, slow.certified, slow.fallbacks)


class TestEnvelopeReads:
    """One hinge per envelope read against each piece's own evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(case=_envelope_cases())
    def test_reads_match_per_piece(self, case):
        inst, config = case
        table = cycle_table(inst, config)
        for k in range(1, inst.horizon + 1):
            _assert_reads_match(table.suffix(k))

    def test_grid_reads_match_per_piece(self, monkeypatch):
        """Every 9th 8-period grid instance: every suffix's reads, and the
        bs and mp policies, equal to the per-piece engine's."""
        config = BenchmarkConfig(horizon=8)
        hc = config.heuristic_config()
        for instance in build_instances(config)[::9]:
            table = cycle_table(instance, hc)
            for k in range(1, instance.horizon + 1):
                view = table.suffix(k)
                _assert_reads_match(view, extra=(
                    hc.lower_bound_for(view.instance),))
            policies = bs_policy(instance, hc), mp_policy(instance, hc)
            with monkeypatch.context() as patch:
                patch.setattr(solver_module, "_SubmodelEngine", PerPieceEngine)
                reference = bs_policy(instance, hc), mp_policy(instance, hc)
            assert repr(policies) == repr(reference), instance.name


def _bits(value):
    """`value` with every float as its type and hex, every array as its
    dtype, shape and bytes, and every ConvexPWL, dataclass, list, tuple
    and dict taken apart, so that == means equal bits."""
    if isinstance(value, float):
        return type(value).__name__, value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, ConvexPWL):
        return _bits((value.slope, value.const, value.kinks, value.deltas))
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(
            [getattr(value, f.name) for f in dataclasses.fields(value)])
    if isinstance(value, dict):
        return tuple((key, _bits(v)) for key, v in sorted(value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_bits(v) for v in value)
    return type(value).__name__, value


def _first_row_pins(engine, extra=()) -> set:
    """Pins inside, on the (slack-widened) edges of and outside the pin
    domain of every first cycle 1..e."""
    pins = set(extra)
    for e in range(1, engine.T + 1):
        cyc = engine.relaxation.cycles[(1, e)]
        pins.update((cyc.y_lo - 1.0, cyc.y_lo - 1e-9, cyc.y_lo,
                     0.5 * (cyc.y_lo + cyc.y_hi),
                     cyc.y_hi, cyc.y_hi + 1e-9, cyc.y_hi + 1.0))
    return pins


def _assert_relaxation_matches_reference(engine, extra=()):
    """Every row, V(j), first end, relaxed path and envelope piece of the
    engine's one-pass relaxation, and its pinned first rows, are
    hex-equal to the recursive definitions'."""
    relax = engine.relaxation
    pins = sorted(_first_row_pins(engine, extra))
    ref = reference_relaxation(engine, pins)
    T = engine.T
    for j in range(1, T + 1):
        arc, reach, end = relax.rows[j]
        assert _bits((arc, reach)) == _bits(ref.rows[j]), j
        assert end == ref.ends[j], j
    for j in range(1, T + 2):
        assert _bits(relax.cost_to_go[j]) == _bits(ref.cost_to_go[j]), j
    for j in range(2, T + 2):
        assert _bits(relax.paths[j]) == _bits(ref.paths[j]), j
    assert _bits(relax.pieces) == _bits(ref.pieces)
    assert relax.kinks is relax.pieces[-1].cost.kinks
    for pin in pins:
        row = engine._row(1, pin, relax.cycles, relax.cost_to_go)
        assert _bits(row) == _bits(ref.pinned[pin]), pin


@st.composite
def _relaxation_cases(draw):
    """An envelope case and a nonzero initial level an s model may pin,
    which widens its level bounds."""
    inst, config = draw(_envelope_cases())
    x0 = draw(st.floats(-60, 120).map(lambda v: round(v, 2)).filter(bool))
    return inst, config, x0


class TestRelaxation:
    """The one-pass relaxation against its recursive definitions."""

    @settings(max_examples=40, deadline=None)
    @given(case=_relaxation_cases())
    def test_matches_reference(self, case):
        """At the default bounds and at a pinned s model's widened ones."""
        inst, config, x0 = case
        table = cycle_table(inst, config)
        for k in range(1, inst.horizon + 1):
            view = table.suffix(k)
            _assert_relaxation_matches_reference(table.engine(k), extra=(x0,))
            pinned = solver_module._engine_for(
                build_minlp_s(view.instance, view, initial_inventory=x0))
            assert (pinned.inv_lo, pinned.inv_hi) != \
                default_bounds(view.instance)
            _assert_relaxation_matches_reference(pinned, extra=(x0,))

    def test_grid_matches_reference(self):
        """Every suffix of every 9th 8-period grid instance."""
        config = BenchmarkConfig(horizon=8)
        hc = config.heuristic_config()
        for instance in build_instances(config)[::9]:
            table = cycle_table(instance, hc)
            for k in range(1, instance.horizon + 1):
                _assert_relaxation_matches_reference(table.engine(k), extra=(
                    hc.lower_bound_for(table.suffix(k).instance),))

    def test_failed_build_stores_nothing(self, example4, segments4,
                                         monkeypatch):
        """A build that raises part way leaves the shared engine with no
        relaxation; the next read builds it whole."""
        table = CycleTable(example4, segments4)
        row, calls = _SubmodelEngine._row, []

        def failing(self, *args):
            calls.append(args)
            if len(calls) == 3:
                raise RuntimeError("row 3 failed")
            return row(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(_SubmodelEngine, "_row", failing)
            with pytest.raises(RuntimeError, match="row 3 failed"):
                table.engine(1).free_minimum()
        engine = table.engine(1)
        assert "relaxation" not in vars(engine) and engine.nodes == 0
        fresh = _SubmodelEngine(table.suffix(1), default_bounds(example4))
        assert _bits(engine.relaxation) == _bits(fresh.relaxation)
        assert _same_answer(engine.free_minimum(), fresh.free_minimum())


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every suffix of both 270-instance grids (minutes); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_relaxation_matches_reference(horizon):
    config = BenchmarkConfig(horizon=horizon)
    hc = config.heuristic_config()
    for instance in build_instances(config):
        table = cycle_table(instance, hc)
        for k in range(1, instance.horizon + 1):
            _assert_relaxation_matches_reference(table.engine(k), extra=(
                hc.lower_bound_for(table.suffix(k).instance),))


def _assert_column_space(model):
    """solve_exact's column vector against the name-by-name reference: the
    levels I0, the linked costs, delta and P bit-equal, I, H and B within
    1e-9; the vector verifies clean, as the reference dict does."""
    res = solve_exact(model)
    ref = reference_solution(model)
    got = res.assignment
    assert list(got) == list(model.names) and set(ref) == set(got)
    for name, value in ref.items():
        if name.split("_")[0] in ("I", "H", "B"):
            assert abs(got[name] - value) <= 1e-9, name
        else:
            assert _same_float(got[name], value), name
    assert verify_assignment(model, res.vector) == []
    assert reference_verify_assignment(model, ref) == []
    return res


def _corruptions(model, x) -> dict:
    """One broken copy of x per check of verify_assignment, and a name that
    it must report: a bound, an integrality, a row, an indicator and a
    piecewise rule entry."""
    index = model.index

    def broken(name, value):
        y = x.copy()
        y[index[name]] = value
        return y

    T = model.instance.horizon
    side = "s" if model.kind == "joint" else model.kind
    last = f"I_{side}_{T}"
    out = {
        f"bound_{last}": broken(last, model.ub[index[last]] + 1.0),
        f"order_nonneg_{side}_1": broken(f"I_{side}_1", x[index[f"I0_{side}"]]
                                         - model.instance.means[0] - 3.0),
    }
    if len(model.free_binaries):  # T = 1 fixes every binary
        free = model.names[model.free_binaries[0]]
        out[f"integrality_{free}"] = broken(free, 0.5)
    idle = [t for t in range(2, T + 1) if x[index[f"delta_{side}_{t}"]] == 0.0]
    if idle:
        t = idle[0]
        out[f"no_order_balance_{side}_{t}_row"] = broken(
            f"I_{side}_{t}", x[index[f"I_{side}_{t}"]] + 2.0)
    j = next(j for j in range(1, T + 1) if x[index[f"P_{side}_{j}_{T}"]] == 1.0)
    hold = f"H_{side}_{T}"
    out[f"loss_{side}_{j}_{T}"] = broken(hold, x[index[hold]] + 0.5)
    return out


def _assert_corruptions_named(model, x):
    """verify_assignment of each broken vector is the reference dict
    path's named list, exactly, and names the broken entry."""
    for name, y in _corruptions(model, x).items():
        got = verify_assignment(model, y)
        as_dict = dict(zip(model.names, y.tolist()))
        assert got == reference_verify_assignment(model, as_dict), name
        assert got == verify_assignment(model, as_dict), name
        assert name in [n for n, _ in got], name


class TestColumnSpace:
    """Solves fill one column vector from the pattern and levels."""

    @pytest.mark.parametrize("kind", ["joint", "s", "S", "pinned"])
    def test_matches_reference(self, example4, segments4, kind):
        model = {"joint": lambda: build_joint(example4, segments4),
                 "s": lambda: build_minlp_s(example4, segments4),
                 "S": lambda: build_minlp_S(example4, segments4),
                 "pinned": lambda: build_minlp_s(example4, segments4, 35.0)}[kind]()
        res = _assert_column_space(model)
        assert res.value("I0_S" if kind == "S" else "I0_s") == \
            res.vector[model.columns["S" if kind == "S" else "s"].initial]
        _assert_corruptions_named(model, res.vector)

    @settings(max_examples=30, deadline=None)
    @given(case=_policy_cases())
    def test_suffixes_match_reference(self, case):
        inst, config = case
        table = cycle_table(inst, config)
        for k in range(1, inst.horizon + 1):
            view = table.suffix(k)
            model = build_joint(view.instance, view)
            _assert_corruptions_named(model, _assert_column_space(model).vector)

    def test_result_reads_its_vector(self, example4, segments4):
        model = build_joint(example4, segments4)
        res = solve_exact(model)
        assert res.index is model.index
        assert res.assignment is res.assignment  # built once
        assert all(type(v) is float for v in res.assignment.values())
        assert res.value("C_S") == res.assignment["C_S"]
        assert type(res.value("I0_s")) is float

    def test_self_check_still_raises(self, example4, segments4, monkeypatch):
        model = build_joint(example4, segments4)
        x = solve_exact(model).vector.copy()
        x[model.index["C_S"]] += 1.0
        with pytest.raises(SolverError, match="fails verification"):
            solver_module._self_check(model, x, model.objective_value(x), None)
        x[model.index["I0_s"]] = math.nan
        with pytest.raises(SolverError, match=r"\[\('bound_I0_s', inf\)\]"):
            solver_module._self_check(model, x, 0.0, None)
        s_model = build_minlp_s(example4, segments4)
        res = solve_exact(s_model)
        with pytest.raises(SolverError, match="objective mismatch"):
            solver_module._self_check(s_model, res.vector, res.objective,
                                      res.objective + 1.0)
        # a reorder root one unit low breaks the cost link
        original = _SubmodelEngine.reorder_root

        def low(self, target, hi):
            root, _ = original(self, target, hi)
            return root - 1.0, self.cost_at(root - 1.0)

        monkeypatch.setattr(_SubmodelEngine, "reorder_root", low)
        with pytest.raises(SolverError, match="link_cost"):
            solve_exact(build_joint(example4, segments4))


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every suffix of both 270-instance grids (minutes); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_column_space_matches_reference(horizon):
    """Every suffix's joint solve: its column vector against the name-by-name
    reference, and the vector checks of broken copies against the dict
    path's named lists."""
    config = BenchmarkConfig(horizon=horizon)
    hc = config.heuristic_config()
    for instance in build_instances(config):
        table = cycle_table(instance, hc)
        for k in range(1, instance.horizon + 1):
            view = table.suffix(k)
            model = build_joint(view.instance, view)
            _assert_corruptions_named(model, _assert_column_space(model).vector)


class TestLimitsAndErrors:
    def test_17_period_matches_external_solver(self):
        """No horizon bound: a 17-period model, past what a full enumeration
        handles quickly, solves to HiGHS's optimum on its exported LP."""
        inst = make_instance(horizon=17, K=10, h=1, b=5, c=0,
                             means=[10] * 17, cv=0.1)
        model = build_minlp_s(inst, build_segments(inst, segments=3))
        res = solve_exact(model)
        assert res.status == "optimal"
        obj_ext, _ = solve_lp(render_lp(model))
        assert res.objective == pytest.approx(obj_ext, abs=1e-6)

    def test_unknown_kind(self, example4, segments4):
        model = build_minlp_s(example4, segments4)
        model.kind = "mystery"
        with pytest.raises(SolverError, match="unknown model kind"):
            solve_exact(model)


class TestImportSolution:
    def _write(self, path, assignment):
        with open(path, "w") as fh:
            for name, value in assignment.items():
                fh.write(f"{name} {float(value)!r}\n")

    def test_round_trip(self, tmp_path, example4, segments4):
        model = build_joint(example4, segments4)
        res = solve_exact(model)
        path = tmp_path / "sol.txt"
        self._write(path, res.assignment)
        imported = import_solution(model, path)
        assert imported.objective == pytest.approx(res.objective, abs=1e-9)
        assert imported.status == "optimal"

    def test_flipped_binary_reports_assignment_row(self, tmp_path, example4,
                                                   segments4):
        model = build_minlp_s(example4, segments4)
        res = solve_exact(model)
        broken = dict(res.assignment)
        t = next(t for t in range(2, 5) if round(broken[f"delta_s_{t}"]) == 1)
        active = next(j for j in range(1, t + 1)
                      if round(broken[f"P_s_{j}_{t}"]) == 1)
        other = 1 if active != 1 else t
        broken[f"P_s_{active}_{t}"] = 0.0
        broken[f"P_s_{other}_{t}"] = 1.0
        path = tmp_path / "bad.txt"
        self._write(path, broken)
        with pytest.raises(SolverError, match="violates"):
            import_solution(model, path)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_value_names_its_column(self, tmp_path, example4, segments4):
        model = build_minlp_s(example4, segments4)
        res = solve_exact(model)
        path = tmp_path / "nan.txt"
        self._write(path, {**res.assignment, "I_s_2": math.nan})
        assert "I_s_2 nan\n" in path.read_text()
        with pytest.raises(SolverError, match="violates bound_I_s_2 by inf"):
            import_solution(model, path)

    def test_empty_file(self, tmp_path, example4, segments4):
        model = build_minlp_s(example4, segments4)
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(SolverError, match="empty"):
            import_solution(model, path)

    def test_unknown_name(self, tmp_path, example4, segments4):
        model = build_minlp_s(example4, segments4)
        res = solve_exact(model)
        path = tmp_path / "alien.txt"
        self._write(path, {**res.assignment, "mystery_var": 1.0})
        with pytest.raises(SolverError, match="name mismatch"):
            import_solution(model, path)
