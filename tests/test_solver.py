import itertools
import logging
import math
import os
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sspolicy.solver as solver_module
from lp_support import solve_lp
from oracle_support import (
    EnumerationEngine, brute_force_submodel, cycles_of, engine_cycle,
    full_enumeration, reference_cycle, reference_pieces, reference_minimum,
    reference_priced, reference_solution, reference_solve_pattern,
    reference_sort, reference_value, reference_verify_assignment,
    suffix_segments,
)
from sspolicy.domain import make_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import (
    HeuristicConfig, bs_policy, cycle_table, mp_policy,
)
from sspolicy.model import (
    build_joint, build_minlp_s, build_minlp_S, build_segments,
    pair_row, verify_assignment,
)
from sspolicy.solver import (
    ConvexPWL, CycleTable, SolverError,
    _SubmodelEngine, import_solution, solve_exact,
)
from sspolicy.testbed import BenchmarkConfig, build_instances


def _engine(model):
    """The no-order engine solve_exact searches for a model."""
    return solver_module._engine_for(model)


def _first_cycles(engine) -> list:
    """(cost, y_lo, y_hi) of each of an engine's first cycles 1..e, at
    entry e: its record and its level bounds [inv_lo + D(1..e),
    inv_hi + D(1..1)]."""
    first = engine.records(1)
    y_hi = engine.inv_hi + first[0][1]
    return [None] + [(f, engine.inv_lo + mean, y_hi) for f, mean in first]


def _own_segments(suffix, config):
    """The suffix's own segments at the heuristic config's partition."""
    return build_segments(suffix, segments=config.cells,
                          strategy=config.strategy)


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
        # the minimizer is a Python float, finite (a kink, a flat piece's
        # midpoint) or infinite (f never rises, f never falls)
        for g, free in ((f, 1.0), (ConvexPWL(-1.0, 0.0, [0.0, 4.0], [1.0, 1.0]), 2.0),
                        (ConvexPWL(-1.0), math.inf), (ConvexPWL(1.0), -math.inf)):
            assert type(g.argmin()) is float and g.argmin() == free
            assert type(g.minimize(-10.0, 10.0)[0]) is float

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


@st.composite
def _pwl_cases(draw):
    """(slope, const, kinks, deltas) on a half-integer grid, so that every
    value the methods form is exact: duplicate kinks, zero deltas, flat
    minima, slopes that never rise or never fall, and no kinks at all."""
    half = st.integers(-16, 16).map(lambda v: v / 2)
    n = draw(st.integers(0, 6))
    kinks = draw(st.lists(half, min_size=n, max_size=n))
    deltas = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),
                           min_size=n, max_size=n))
    # a slope that some kinks' deltas cancel exactly gives a flat stretch
    ordered = [d for _, d in sorted(zip(kinks, deltas), key=lambda p: p[0])]
    slope = draw(st.integers(-12, 4).map(float)
                 | st.integers(0, n).map(lambda m: -sum(ordered[:m])))
    return slope, draw(half), kinks, deltas


def _exact(case, x):
    """f(x) in exact arithmetic."""
    slope, const, kinks, deltas = case
    x = Fraction(x)
    return (Fraction(slope) * x + Fraction(const)
            + sum(Fraction(d) * max(x - Fraction(k), 0)
                  for k, d in zip(kinks, deltas)))


def _brute_argmin(case):
    """inf where f never rises, -inf where it never falls, else the
    midpoint of the kinks where f is least."""
    slope, _, kinks, deltas = case
    if slope + sum(deltas) <= 0:
        return math.inf
    if slope >= 0:
        return -math.inf
    values = {k: _exact(case, k) for k in kinks}
    low = min(values.values())
    at = [k for k, v in values.items() if v == low]
    return 0.5 * (min(at) + max(at))


def _brute_crossing(case, level, x):
    """Left end of {f < level} holding x, f(x) < level, walking the
    distinct kinks left of x in exact arithmetic."""
    slope = case[0]
    level = Fraction(level)
    points = sorted({k for k in case[2] if k < x}) + [x]
    above = [p for p in points if _exact(case, p) >= level]
    if not above:
        if slope >= 0:
            return -math.inf
        p = points[0]
        return float(p + (level - _exact(case, p)) / Fraction(slope))
    p = above[-1]
    q = points[points.index(p) + 1]
    fp, fq = _exact(case, p), _exact(case, q)
    return float(Fraction(q) + (level - fq) * (Fraction(q) - Fraction(p)) / (fq - fp))


class TestConvexPWLMemo:
    """argmin, minimize and left_crossing read one memoized sort; against
    brute force over the kinks, on fresh objects and on objects whose memo
    is already filled."""

    @staticmethod
    def _objects(case):
        slope, const, kinks, deltas = case
        warm = ConvexPWL(slope, const, kinks, deltas)
        warm.argmin(), warm.minimize(-1.0, 1.0)
        if warm(20.0) < 1e3:
            warm.left_crossing(1e3, 20.0, warm(20.0))
        return lambda: ConvexPWL(slope, const, kinks, deltas), warm

    @settings(max_examples=300, deadline=None)
    @given(case=_pwl_cases(), bounds=st.tuples(
        st.integers(-20, 20), st.integers(0, 12)).map(
            lambda t: (t[0] / 2, (t[0] + t[1]) / 2)))
    def test_argmin_and_minimize_match_brute_force(self, case, bounds):
        fresh, warm = self._objects(case)
        x = _brute_argmin(case)
        for f in (fresh(), warm):
            assert float(f.argmin()).hex() == float(x).hex()
        lo, hi = bounds
        inside = [lo, hi] + [k for k in case[2] if lo <= k <= hi]
        low = min(_exact(case, v) for v in inside)
        for f in (fresh(), warm):
            got, value = f.minimize(lo, hi)
            assert got == min(max(x, lo), hi)
            assert value == low == _exact(case, got)

    @settings(max_examples=300, deadline=None)
    @given(case=_pwl_cases(), x=st.integers(-24, 24).map(lambda v: v / 2),
           gap=st.integers(1, 40).map(lambda v: v / 4))
    def test_left_crossing_matches_brute_force(self, case, x, gap):
        """x left of every kink, levels never crossed (-inf) and crossings
        on every piece."""
        fresh, warm = self._objects(case)
        fx = float(_exact(case, x))
        level = fx + gap
        ref = _brute_crossing(case, level, x)
        got = [f.left_crossing(level, x, fx) for f in (fresh(), warm)]
        assert _same_float(got[0], got[1])
        if ref == -math.inf:
            assert got[0] == -math.inf
        else:
            assert math.isclose(got[0], ref, rel_tol=1e-12, abs_tol=1e-12)

    def test_sort_is_own_lazy_and_read_only(self):
        """A cost sorts its own kinks when first read, and keeps the sort;
        plus and shifted start unsorted, sharing no sort; the sort's arrays
        refuse writes."""
        f = ConvexPWL(-2.0, 1.0, [3.0, 1.0, 3.0], [1.0, 0.0, 2.0])
        assert f._sorted is None
        kinks, rises = f._sort()
        assert f._sort() is f._sorted
        assert kinks.tolist() == [1.0, 3.0, 3.0]
        assert rises.tolist() == [0.0, 0.0, 1.0, 3.0]
        assert f.plus(f)._sorted is None and f.shifted(1.0)._sorted is None
        assert not (kinks.flags.writeable or rises.flags.writeable)


class TestDotProducts:
    """ConvexPWL.__call__ and _first_arc sum max(x - kink, 0) * delta with
    ndarray.dot; both are bit-equal to the `@` product they replaced."""

    def test_call_matches_matmul(self):
        rng = np.random.default_rng(20171)
        for n in range(1, 251):
            kinks = rng.normal(50.0, 30.0, n)
            deltas = rng.exponential(3.0, n)
            f = ConvexPWL(rng.normal(-5.0, 5.0), rng.normal(0.0, 100.0),
                          kinks, deltas)
            xs = [*kinks[:5].tolist(), *rng.uniform(-50.0, 150.0, 4).tolist(),
                  float(kinks.min()) - 1.0, float(kinks.max()) + 1.0]
            for x in xs:
                assert _same_float(f(x), reference_value(f, x)), (n, x)

    def test_first_arcs_match_matmul(self):
        """Every first arc of every suffix engine of one 8-period grid
        instance, at its cycles' kinks, level bounds and free minimizers."""
        config = BenchmarkConfig(horizon=8, unit_cost=1.5)
        instance = build_instances(config)[97]
        table = cycle_table(instance, config.heuristic_config())
        for k in range(1, instance.horizon + 1):
            engine = table.engine(k)
            firsts = _first_cycles(engine)
            points = {x for f, lo, hi in firsts[1:]
                      for x in (lo, hi, f.argmin(), *f.kinks[::3].tolist())
                      if math.isfinite(x)}
            for x in sorted(points):
                arc = engine._first_arc(x)
                for e in range(1, engine.T + 1):
                    f, lo, hi = firsts[e]
                    ref = (reference_value(f, x)
                           if lo - 1e-9 <= x <= hi + 1e-9 else math.inf)
                    assert _same_float(arc[e], ref), (k, e, x)


class TestDeterminism:
    def test_identical_results(self, example4, segments4):
        model = build_joint(example4, segments4)
        a = solve_exact(model)
        b = solve_exact(model)
        assert a.objective == b.objective
        assert a.assignment == b.assignment
        assert a.node_count == b.node_count

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
    """Small instances with the search's edge cases: T = 1, K = 0, c > 0
    up to just below b (so also above h), zero-sd periods, and free,
    pinned (also negative) or forced levels."""
    T = draw(st.integers(1, 6))
    K = draw(st.sampled_from([0.0, 40.0, 150.0]))
    h = draw(st.floats(0.5, 2.0).map(lambda v: round(v, 2)))
    b = draw(st.floats(2.0, 15.0).map(lambda v: round(v, 2)))
    c = round(b * draw(st.sampled_from([0.0, 0.0, 0.1, 0.5, 0.99])), 2)
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
            # the premise: the instance's rows of the suffix's pairs agree
            shared_rows = suffix_segments(table.segments, inst.horizon, k)
            for name in ("breakpoints", "means", "errors", "steps", "slopes",
                         "lines", "cuts"):
                assert (getattr(shared_rows, name).tobytes()
                        == getattr(segs, name).tobytes()), name
            shared = table.engine(k)
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


class TestFreeMinima:
    """Free minima read from the solved later suffixes against the pattern
    searches."""

    @settings(max_examples=40, deadline=None)
    @given(case=_policy_cases(),
           x0=st.floats(-60, 120).map(lambda v: round(v, 2)).filter(bool))
    def test_match_full_enumeration(self, case, x0):
        """Every suffix's free minimum, certified from its first-cycle
        pieces or searched, is the full enumeration's, bit for bit: at the
        default bounds and at a pinned s model's widened ones, which its
        engine's tails share."""
        inst, config = case
        table = cycle_table(inst, config)
        pinned = solver_module._engine_for(
            build_minlp_s(inst, table.segments, initial_inventory=x0))
        assert (pinned.inv_lo, pinned.inv_hi) != table.bounds
        for k in range(1, inst.horizon + 1):
            engine = table.engine(k)
            assert _same_answer(engine.free_minimum(), full_enumeration(engine)), k
        for engine in [pinned, *pinned.later]:
            assert (engine.inv_lo, engine.inv_hi) == (pinned.inv_lo, pinned.inv_hi)
            assert _same_answer(engine.free_minimum(), full_enumeration(engine))

    def test_ties_fall_back(self):
        """h25-STA-K500-b5-cv0.3 has suffixes whose pieces lie within 1e-9
        relative of each other: at least one suffix searches (its answer is
        not marked exact), and every free minimum is the branch and bound's
        on a second table, bit for bit."""
        config = BenchmarkConfig(horizon=25, patterns=("STA",),
                                 fixed_costs=(500.0,), penalty_costs=(5.0,),
                                 cvs=(0.3,))
        (instance,) = build_instances(config)
        assert instance.name == "h25-STA-K500-b5-cv0.3"
        hc = config.heuristic_config()
        table, other = cycle_table(instance, hc), cycle_table(instance, hc)
        for k in range(1, 26):
            best = table.engine(k).free_minimum()
            assert _same_answer(best, other.engine(k).enumerate(None)[0]), k
        assert not all(table.engine(k)._free[2] for k in range(1, 26))


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every suffix of three 270-instance grids "
                           "(minutes); set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon, unit_cost", [(8, 0.0), (25, 0.0), (8, 1.5)],
                         ids=["8-period", "25-period", "8-period-c1.5"])
def test_full_grid_free_minima_match_search(horizon, unit_cost):
    """Every suffix's free minimum is the branch and bound's on a second
    table, bit for bit."""
    config = BenchmarkConfig(horizon=horizon, unit_cost=unit_cost)
    hc = config.heuristic_config()
    instances = build_instances(config)
    patterns = 0
    for instance in instances:
        table, other = cycle_table(instance, hc), cycle_table(instance, hc)
        for k in range(1, horizon + 1):
            best = table.engine(k).free_minimum()
            assert _same_answer(best, other.engine(k).enumerate(None)[0]), \
                (instance.name, k)
        patterns += table.work()[0]
    print(f"\n[solver] {horizon} periods, c = {unit_cost}: free minima equal "
          f"to the search's on {len(instances)} instances, {patterns} "
          f"patterns solved")


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
    """Both fields of every cycle's record of the table:
    the priced cost against adding the cycle's pieces one at a time, its
    memoized argmin and min against that sum's own sort, the mean against
    the same sum's; the shared arrays refuse writes. The sum's largest
    shift is the record's mean and its smallest the start's first mean,
    so the engine's level bounds [inv_lo + D(j..e), inv_hi + D(j..j)]
    are those of every period of the cycle."""
    table = CycleTable(instance, segments)
    pieces = reference_pieces(instance, segments)
    T = instance.horizon
    for j in range(1, T + 1):
        for e in range(j, T + 1):
            _, mean, top, low = reference_cycle(instance, pieces, j, e)
            records = table.costs.start(j)
            got = records[e - j]
            cost, *ref = reference_priced(instance, pieces, j, e)
            where = (j, e)
            assert len(got) == 2, where
            _assert_same_pwl(got[0], cost, where)
            assert not (got[0].kinks.flags.writeable
                        or got[0].deltas.flags.writeable)
            # argmin and min (nan where the argmin is infinite), mean
            fields = got[0].minimize(-math.inf, math.inf) + got[1:]
            assert all(_same_float(a, b) for a, b in
                       zip(fields, ref + [mean])), where
            assert _same_float(top, got[1]), where
            assert _same_float(low, records[0][1]), where


def _assert_record_minima_match_reference(instance, segments):
    """Every record: the free (argmin, min) its start memoized, then its
    own sort, against the per-cost references."""
    costs = CycleTable(instance, segments).costs
    for j in range(1, instance.horizon + 1):
        records = costs.start(j)
        assert all(f._sorted is None for f, _ in records), j
        for e, (f, _) in enumerate(records, start=j):
            where = (instance.name, j, e)
            got, ref = f._free, reference_minimum(f)
            assert all(_same_float(a, b) for a, b in zip(got, ref)), where
            for a, b in zip(f._sort(), reference_sort(f)):
                assert a.tobytes() == b.tobytes(), where


class TestCycleTableArrays:
    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(1, 9), K=st.sampled_from([0.0, 40.0]),
           c=st.sampled_from([0.0, 1.5]), n_seg=st.integers(3, 21),
           strategy=st.sampled_from(["equal-probability", "minimax"]),
           data=st.data())
    def test_matches_reference(self, T, K, c, n_seg, strategy, data):
        """K = 0, c > 0, zero-sd and zero-mean periods, 3..21 linear
        segments."""
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
        _assert_table_matches_reference(inst, segs)

    @settings(max_examples=60, deadline=None)
    @given(T=st.integers(1, 9), data=st.data())
    def test_start_means_nondecreasing(self, T, data):
        """The level bounds' premise: every start's row of cumulative means
        D(j..j), D(j..j+1), ... is nondecreasing, bit for bit, with no
        -0.0, so its largest entry is the last and its smallest the first.
        Zero, -0.0, subnormal and 1e12 means, zero-sd periods. Also the
        deleted unit-cost constant of the single cycle 1..T is +0.0: its
        pinned arc equals solve_pattern's cost of the no-order pattern."""
        means = data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, 1e12])
            | st.floats(0, 1e12).map(lambda v: round(v, 1)),
            min_size=T, max_size=T))
        cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]),
                                 min_size=T, max_size=T))
        inst = make_instance(T, K=40.0, h=1.0, b=10.0, c=1.5, means=means,
                             std_devs=[m * v for m, v in zip(means, cvs)])
        segs = build_segments(inst, segments=6, strategy="equal-probability")
        for j in range(1, T + 1):
            row = segs.means[pair_row(j, np.arange(j, T + 1))]
            assert not np.signbit(row).any(), (j, row)
            assert (row[1:] >= row[:-1]).all(), (j, row)
            assert _same_float(float(row.max()), float(row[-1])), j
            assert _same_float(float(row.min()), float(row[0])), j
        engine = CycleTable(inst, segs).engine(1)
        f, y_lo, y_hi = _first_cycles(engine)[T]
        for x in {y_lo, *f.kinks.tolist(), float(f.argmin())}:
            if not (math.isfinite(x) and y_lo <= x <= y_hi):
                continue
            cost, _ = engine.solve_pattern((0,) * T, x)
            assert _same_float(engine._first_arc(x)[T], cost), x

    @pytest.mark.parametrize("c", [0.0, 1.5])
    def test_each_start_sorts_once(self, c, monkeypatch):
        """Building a start sorts its kinks once and memoizes the free
        minimum of every record; no record sorts its own kinks then, nor in
        bs, whose suffix engines read the table's records. After mp, whose reorder roots read some, a
        record's own sort is the start's stable order filtered to the
        record's prefix of kinks."""
        inst = make_instance(5, K=60, h=1, b=10, c=c,
                             means=[20, 0, 35, 10, 25], cv=0.2)
        config = HeuristicConfig(segments=6)
        table = cycle_table(inst, config)
        real, sorted_sizes = np.argsort, []

        def argsort(a, *args, **kwargs):
            sorted_sizes.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np, "argsort", argsort)
        for j in range(1, inst.horizon + 1):
            records = table.costs.start(j)
            assert sorted_sizes == [records[-1][0].kinks.size], j
            sorted_sizes.clear()
            for f, _ in records:
                assert f._free is not None and f._sorted is None, j
        monkeypatch.undo()
        bs_policy(inst, config, table=table)
        for k in range(1, inst.horizon + 1):
            records = table.costs.start(k)
            assert table.engine(k).records(1) is records
            assert table.engine(1).records(k) is records
            assert all(f._sorted is None for f, _ in records), k
        mp_policy(inst, config, table=table)
        for j in range(1, inst.horizon + 1):
            start = table.costs.start(j)[-1][0].kinks
            order = np.argsort(start, kind="stable")
            for f, _ in table.costs.start(j):
                own = order[order < f.kinks.size]
                kinks, rises = f._sort()
                assert kinks.tobytes() == start[own].tobytes(), j
                assert rises.tobytes() == np.concatenate(
                    ([0.0], np.cumsum(f.deltas[own]))).tobytes(), j

    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(1, 9), K=st.sampled_from([0.0, 40.0]),
           c=st.sampled_from([0.0, 1.5]), n_seg=st.integers(3, 21),
           tail=st.integers(0, 3), data=st.data())
    def test_record_minima_match_reference(self, T, K, c, n_seg, tail, data):
        """Every record's memoized (argmin, min), set from its start's one
        sort, and its lazy own sort against the per-cost sort and minimum
        (oracle_support.reference_sort, reference_minimum), bits and
        types: K = 0, c > 0, zero-sd periods (whose kinks tie), zero-mean
        tails, 3..21 linear segments."""
        means = data.draw(st.lists(
            st.just(0.0) | st.floats(0, 30).map(lambda v: round(v, 1)),
            min_size=T, max_size=T))
        means[T - min(tail, T):] = [0.0] * min(tail, T)
        cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]),
                                 min_size=T, max_size=T))
        inst = make_instance(T, K=K, h=1.0, b=10.0, c=c, means=means,
                             std_devs=[m * v for m, v in zip(means, cvs)])
        _assert_record_minima_match_reference(
            inst, build_segments(inst, segments=n_seg - 1))

    @pytest.mark.parametrize("c", [0.0, 1.5])
    @pytest.mark.parametrize("horizon", [8, 25])
    def test_grid_records_hold_no_negative_zero(self, horizon, c):
        """solve_pattern reads a pattern's first cycle cost from its record
        as is, not from a copy shifted by 0.0. The two are equal bit for bit
        unless a kink or the constant is -0.0, which such a shift turns
        into 0.0. No record of either grid holds one: kinks and constants
        are sums seeded with 0.0 (TestPoolPass compares the pass with the
        shifted copy's)."""
        config = BenchmarkConfig(horizon=horizon, unit_cost=c)
        hc = config.heuristic_config()
        for instance in build_instances(config):
            costs = cycle_table(instance, hc).costs
            for j in range(1, horizon + 1):
                for f, *_ in costs.start(j):
                    assert not np.signbit(f.kinks[f.kinks == 0.0]).any()
                    assert not (f.const == 0.0 and math.copysign(1.0, f.const) < 0)


@pytest.mark.parametrize("c", [1.5, 2.0, 4.9])
def test_unit_cost_above_holding_keeps_the_bound_tight(c):
    """Every record rises right of its kinks (slope h (e - j + 1), plus c
    on the horizon's last cycle), so its relaxed arc is its own minimum,
    not a clamp at the big-M level bound, even where c > h. Every suffix
    free minimum of h25-LCY1-K500-b5-cv0.1 (h = 1) solves one pattern."""
    config = BenchmarkConfig(horizon=25, unit_cost=c, patterns=("LCY1",),
                             fixed_costs=(500.0,), penalty_costs=(5.0,),
                             cvs=(0.1,))
    (instance,) = build_instances(config)
    assert instance.name == "h25-LCY1-K500-b5-cv0.1"
    table = cycle_table(instance, config.heuristic_config())
    for k in range(1, 26):
        engine = table.engine(k)
        engine.free_minimum()
        assert engine.nodes == 1, k


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


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every record of both 270-instance grids (minutes); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("c", [0.0, 1.5])
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_record_minima_match_reference(horizon, c):
    config = BenchmarkConfig(horizon=horizon, unit_cost=c)
    hc = config.heuristic_config()
    for inst in build_instances(config):
        _assert_record_minima_match_reference(inst, build_segments(
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
        """Every read of one table suffix is the table's engine, whose
        free minimum is searched once. solve_exact builds its own engine,
        so it counts its own search and leaves the table's work alone."""
        fresh = solve_exact(build_joint(example4, segments4))
        table = CycleTable(example4, segments4)
        engine = table.engine(1)
        assert table.engine(1) is engine
        free = engine.free_minimum()
        assert engine.free_minimum() is free
        assert engine.nodes > 0
        work = table.work()
        again = solve_exact(build_joint(example4, table.segments))
        assert again.node_count == fresh.node_count > 0
        assert again.assignment == fresh.assignment
        assert table.work() == work

    @pytest.mark.parametrize("k", [0, -1, 5])
    def test_engine_index_outside_horizon(self, example4, segments4, k):
        """A suffix index outside 1..T is rejected by name before any
        engine is built."""
        table = CycleTable(example4, segments4)
        with pytest.raises(ValueError, match=rf"k={k}\b"):
            table.engine(k)
        assert not table._engines

    def test_single_pattern_matches_subproblem(self, example4, segments4):
        """T=1 forced-order model has one pattern: the convex subproblem."""
        inst = example4.suffix(4)
        segs = build_segments(inst, segments=10, strategy="minimax")
        model = build_minlp_S(inst, segs)
        res = solve_exact(model)
        assert res.node_count == 1
        pw = reference_pieces(inst, segs)[(1, 1)]
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
            suffix = inst.suffix(k)
            engine = table.engine(k)
            (root, best), target, s_up = _reorder_root(engine, suffix)
            assert best[0] == pytest.approx(target, abs=1e-7)
            pins = {s_up, root, root - 1.0, 0.0}
            for limit in engine.tails[1][1:]:
                if math.isfinite(limit):  # both sides of U_e
                    pins.update((limit - 0.5, limit, limit + 0.5))
            for x in sorted(pins):
                certified = engine._certified(x, engine._first_arc(x))
                if certified is None:
                    continue
                searched, _ = engine.enumerate(x)
                assert certified[0] == pytest.approx(searched[0], rel=1e-9)
                cost, levels = engine.solve_pattern(certified[1], x)
                assert cost == pytest.approx(certified[0], rel=1e-9)
                assert np.allclose(levels, certified[2], rtol=0, atol=1e-9)
            for x in np.linspace(root, s_up, 6)[1:]:  # nothing larger
                assert engine.enumerate(x)[0][0] < target + 1e-9
            reference = _reorder_root(
                EnumerationEngine(table.costs, k, table.bounds, engine.later),
                suffix)[0]
            _assert_same_root(engine, target, root, reference)
            emptied = _uncertified(
                _SubmodelEngine(table.costs, k, table.bounds, engine.later))
            fallback = _reorder_root(emptied, suffix)[0]
            assert emptied.certified == 0
            _assert_same_root(engine, target, root, fallback)

    def test_forced_fallback_is_counted_and_logged(self, example4, segments4,
                                                   caplog):
        engine = _engine(build_joint(example4, segments4))
        (root, _), _, _ = _reorder_root(engine, example4)
        assert (engine.certified, engine.fallbacks) == (2, 0)
        forced = _uncertified(_engine(build_joint(example4, segments4)))
        with caplog.at_level(logging.DEBUG, logger="sspolicy.solver"):
            (again, _), _, _ = _reorder_root(forced, example4)
        assert (forced.certified, forced.fallbacks) == (0, 1)
        assert again == pytest.approx(root, abs=1e-9)
        records = [r for r in caplog.records if r.name == "sspolicy.solver"]
        assert len(records) == 1
        assert "4-period suffix" in records[0].getMessage()

    def test_uncertified_cost_at_builds_one_first_row(self, example4,
                                                      segments4, monkeypatch):
        """A cost_at that the certificates cannot answer searches from the
        first cycle's arcs it pinned for them."""
        engine = _uncertified(_engine(build_joint(example4, segments4)))
        x = float(engine.free_minimum()[2][0]) - 1.0
        first_arc, calls = _SubmodelEngine._first_arc, []

        def counting(self, level):
            calls.append(level)
            return first_arc(self, level)

        monkeypatch.setattr(_SubmodelEngine, "_first_arc", counting)
        answer = engine.cost_at(x)
        assert calls == [x] and engine.certified == 0
        assert _same_answer(answer, engine.enumerate(x)[0])

    def test_gap8_instance_certifies_every_suffix(self, monkeypatch):
        """On every 10th 8-period grid instance, bs then mp on one shared
        table: every pinned level, a bs cost_at or a level of mp's reorder
        root walk, is answered from its pinned first row, so no pinned
        search runs, and no reorder root falls back."""
        config = BenchmarkConfig(horizon=8)
        hc = config.heuristic_config()
        answer, search = _SubmodelEngine._answer, _SubmodelEngine._search
        calls, pinned = [], []

        def counting_answer(self, x, first):
            calls.append(x)
            return answer(self, x, first)

        def counting_search(self, first, pinned_i0):
            if pinned_i0 is not None:
                pinned.append(pinned_i0)
            return search(self, first, pinned_i0)

        monkeypatch.setattr(_SubmodelEngine, "_answer", counting_answer)
        monkeypatch.setattr(_SubmodelEngine, "_search", counting_search)
        for instance in build_instances(config)[::10]:
            table = cycle_table(instance, hc)
            calls.clear()
            bs_policy(instance, hc, table=table)
            mp_policy(instance, hc, table=table)
            _, certified, fallbacks = table.work()
            assert calls and (certified, fallbacks) == (len(calls), 0), \
                instance.name
        assert pinned == []


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
def _pool_cases(draw):
    """Instances for the pool pass: T = 1-8, K = 0, c > 0, zero-sd and
    zero-mean periods, and a nonzero initial level an s model may pin,
    which widens its level bounds."""
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
    config = HeuristicConfig(segments=draw(st.integers(3, 12)))
    x0 = draw(st.floats(-60, 120).map(lambda v: round(v, 2)).filter(bool))
    return inst, config, x0


def _uncertified(engine):
    """`engine` with every certificate limit of its tails cut to -inf."""
    limits = engine.tails[1]
    limits[:] = [-math.inf] * len(limits)
    return engine


def _same_answer(got, ref) -> bool:
    """Two cost_at answers (or None) with equal bits: cost, pattern and
    levels."""
    if ref is None or got is None:
        return got is ref
    return (len(got) == len(ref) == 3
            and _same_float(got[0], ref[0]) and got[1] == ref[1]
            and got[2].dtype == ref[2].dtype
            and got[2].tobytes() == ref[2].tobytes())


def _first_row_pins(engine, extra=()) -> set:
    """Pins inside, on the (slack-widened) edges of and outside the pin
    domain of every first cycle 1..e."""
    pins = set(extra)
    for e in range(1, engine.T + 1):
        _, y_lo, y_hi = _first_cycles(engine)[e]
        pins.update((y_lo - 1.0, y_lo - 1e-9, y_lo, 0.5 * (y_lo + y_hi),
                     y_hi, y_hi + 1e-9, y_hi + 1.0))
    return pins


def _same_pattern_solve(got, ref) -> bool:
    """Two solve_pattern answers (or None) with equal bits: cost and
    levels."""
    if ref is None or got is None:
        return got is ref
    return (len(got) == len(ref) == 2
            and _same_float(got[0], ref[0]) and got[1].dtype == ref[1].dtype
            and got[1].tobytes() == ref[1].tobytes())


class TestPoolPass:
    """solve_pattern's stack pass against the restart scan it replaced."""

    @settings(max_examples=40, deadline=None)
    @given(case=_pool_cases(), data=st.data())
    def test_matches_restart_scan(self, case, data):
        """Random patterns at the default bounds and a pinned s model's
        widened ones, free and pinned inside, on the slack edges of and
        outside every first cycle's level bounds, and between the engine's
        upper bound and the first cycle's, where a merge is infeasible."""
        inst, config, x0 = case
        table = cycle_table(inst, config)
        T = inst.horizon
        patterns = data.draw(st.lists(
            st.lists(st.integers(0, 1), min_size=T - 1, max_size=T - 1).map(
                lambda tail: (0, *tail)), min_size=1, max_size=6))
        for engine in (table.engine(1), solver_module._engine_for(
                build_minlp_s(inst, table.segments, initial_inventory=x0))):
            pins = _first_row_pins(engine, extra=(None, x0))
            pins.update(0.5 * (engine.inv_hi + engine_cycle(engine, j, e).y_hi)
                        for j in range(1, T + 1) for e in range(j, T + 1))
            for deltas in patterns:
                for pin in pins:
                    assert _same_pattern_solve(
                        engine.solve_pattern(deltas, pin),
                        reference_solve_pattern(engine, deltas, pin)), \
                        (deltas, pin)

    def test_merged_block_pools_again(self):
        """A pattern where a merged top block breaks the chain with the
        block below it, so one push pools more than once."""
        inst = make_instance(6, K=40, h=1, b=10, c=0,
                             means=[5, 40, 0, 0, 5, 0],
                             std_devs=[0, 16, 0, 0, 0.5, 0])
        engine = cycle_table(inst, HeuristicConfig(segments=5)).engine(1)
        deltas = (0, 0, 1, 1, 0, 1)
        assert _same_pattern_solve(engine.solve_pattern(deltas, None),
                                   reference_solve_pattern(engine, deltas, None))

    def test_infeasible_merges(self, example4, segments4):
        """A pin above the engine's upper bound but within the first
        cycle's passes the first block's own check, and every pattern whose
        next cycle must merge with it is infeasible in both passes."""
        engine = CycleTable(example4, segments4).engine(1)
        infeasible = 0
        for tail in itertools.product((0, 1), repeat=engine.T - 1):
            deltas = (0, *tail)
            first = cycles_of(engine, deltas)[0]
            for pin in (0.5 * (engine.inv_hi + first.y_hi), first.y_hi,
                        first.y_hi + 1e-9):
                assert engine.inv_hi < pin <= first.y_hi + 1e-9
                got = engine.solve_pattern(deltas, pin)
                assert _same_pattern_solve(
                    got, reference_solve_pattern(engine, deltas, pin))
                infeasible += got is None
        assert infeasible == 3 * (2 ** (engine.T - 1) - 1)


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
        for k in range(1, inst.horizon + 1):
            suffix = inst.suffix(k)
            model = build_joint(suffix, _own_segments(suffix, config))
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
        for k in range(1, instance.horizon + 1):
            suffix = instance.suffix(k)
            model = build_joint(suffix, _own_segments(suffix, hc))
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


class TestLargestRoot:
    """_largest_root on a continuous piecewise-linear g with one kink at
    its root r = -0.3, slope -steep to the left and -flat to the right,
    searched for g = 0 from hi = 0; `calls` records every level read."""

    R = -0.3

    def _g(self, steep, flat):
        calls = []

        def g(x):
            calls.append(x)
            return -steep * (x - self.R) if x <= self.R else -flat * (x - self.R)
        return g, calls

    def test_g_above_target_at_hi(self):
        g, calls = self._g(10.0, 1.0)
        with pytest.raises(SolverError, match=r"requires g\(hi\) <= target"):
            solver_module._largest_root(g, 0.0, -1.0, g(-1.0), -100.0)
        assert calls == [-1.0]

    def test_no_root_above_lower_limit(self):
        g, calls = self._g(10.0, 1.0)
        with pytest.raises(SolverError, match=re.escape(
                "no root above the lower limit -0.25; bracket [-0.25, 0.0] "
                f"has costs [{g(-0.25)!r}, {g(0.0)!r}]")):
            solver_module._largest_root(g, 0.0, 0.0, g(0.0), -0.25)
        assert min(calls) == -0.25

    def test_narrowed_bracket_polishes(self):
        """The secant across the kink misses at the 1e-4 bracket, so the
        bracket narrows once more and the polish there meets ROOT_MATCH."""
        g, calls = self._g(10.0, 1.0)
        x, gx = solver_module._largest_root(g, 0.0, 0.0, g(0.0), -100.0)
        assert gx == g(x) and abs(gx) <= solver_module.ROOT_MATCH
        assert abs(x - self.R) <= solver_module.ROOT_MATCH
        levels = np.unique(calls)
        assert np.diff(levels).min() < 1e-6  # read inside a narrowed bracket

    def test_kink_in_bracket_returns_bracket_end(self):
        """Slopes so steep that no secant within 1e-9 of the kink meets
        ROOT_MATCH: the bracket's left end is the root, within 1e-9."""
        g, _ = self._g(1e10, 1e6)
        x, gx = solver_module._largest_root(g, 0.0, 0.0, g(0.0), -100.0)
        assert gx == g(x) and solver_module.ROOT_MATCH < gx <= 1e10 * 1e-9
        assert self.R - 1e-9 <= x <= self.R


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

    @pytest.mark.parametrize("line, message", [
        ("I_s_2 1.0 2.0", "parse error on line 'I_s_2 1.0 2.0'"),
        ("I_s_2", "parse error on line 'I_s_2'"),
        ("I_s_2 ten", "bad value for I_s_2: 'ten'"),
        (None, "name mismatch: missing variable 'I_s_2'"),
    ], ids=["three-fields", "one-field", "non-numeric", "missing"])
    def test_bad_line_named(self, tmp_path, example4, segments4, line, message):
        """A malformed line, a value that is no number and an unfixed
        column left out are each named with the file."""
        model = build_minlp_s(example4, segments4)
        assignment = dict(solve_exact(model).assignment)
        del assignment["I_s_2"]
        path = tmp_path / "bad.txt"
        self._write(path, assignment)
        if line is not None:
            with open(path, "a") as fh:
                fh.write(line + "\n")
        with pytest.raises(SolverError, match=re.escape(f"{path}: {message}")):
            import_solution(model, path)
