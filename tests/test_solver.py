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
    EnumerationEngine, brute_force_submodel, full_enumeration,
    reference_cycle, reference_priced,
)
from sspolicy.domain import make_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import HeuristicConfig, bs_policy, mp_policy
from sspolicy.model import (
    build_joint, build_minlp_s, build_minlp_S, build_segments, level_bounds,
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
    """Every cycle and priced variant of the table, against adding the
    cycle's pieces one at a time and ConvexPWL.argmin's own sort; the
    shared arrays refuse writes."""
    table = CycleTable(instance, segments)
    T = instance.horizon
    for j in range(1, T + 1):
        for e in range(j, T + 1):
            got = table.cycle(j, e)
            ref = reference_cycle(instance, segments, j, e)
            _assert_same_pwl(got[0], ref[0], (j, e))
            assert not (got[0].kinks.flags.writeable or got[0].deltas.flags.writeable)
            assert all(_same_float(a, b) for a, b in zip(got[1:], ref[1:])), (j, e)
            for first in (True, False):
                got = table.priced(j, e, first)
                ref = reference_priced(instance, segments, j, e, first)
                _assert_same_pwl(got[0], ref[0], (j, e, first))
                assert _same_float(got[1], ref[1]), (j, e, first)  # argmin
                assert _same_float(got[2], ref[2]), (j, e, first)  # min


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
        """With c = 0 both `first` values are one entry on the cycle's cost."""
        assert example4.costs.unit == 0.0
        table = CycleTable(example4, segments4)
        assert table.priced(2, 3, True) is table.priced(2, 3, False)
        assert table.priced(1, 4, True)[0] is table.cycle(1, 4)[0]


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
            for piece in engine.envelope():
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
            for piece in emptied.envelope():
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
        for piece in forced.envelope():
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
