import builtins
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import reference_segments
from sspolicy.domain import make_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import HeuristicConfig
from sspolicy.model import (
    CUT, INDICATOR, PiecewiseRules, RowTable, _emit_joint, build_joint,
    build_minlp_s, build_minlp_S, build_segments, cumulative_demand,
    default_big_m, level_bounds, period_pieces, verify_assignment,
)
from sspolicy.sdp import default_grid
from sspolicy.solver import CycleTable, solve_exact
from sspolicy.testbed import BenchmarkConfig, build_instances


@pytest.fixture(scope="module")
def example4():
    return make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25)


@pytest.fixture(scope="module")
def segments4(example4):
    # eleven linear segments (ten support cells), tail-optimized partition
    return build_segments(example4, segments=10, strategy="minimax")


def _assert_segments_match_reference(instance, cells, strategy):
    got = build_segments(instance, segments=cells, strategy=strategy)
    ref = reference_segments(instance, cells, strategy)
    assert list(got) == list(ref)  # keys in the same order
    for key, pw in got.items():
        want = ref[key]
        assert repr(pw) == repr(want), key
        for field in fields(pw):
            a, b = getattr(pw, field.name), getattr(want, field.name)
            a, b = (a, b) if isinstance(a, tuple) else ((a,), (b,))
            assert [float(v).hex() for v in a] == [float(v).hex() for v in b], \
                (key, field.name)


def _compensated_sum(iterable, /, start=0):
    """sum() as Python 3.12 and later add floats: Neumaier's compensated
    summation."""
    total, carry = start, 0.0
    for v in iterable:
        t = total + v
        carry += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + carry if carry else total


class TestSegments:
    def test_convolution(self, example4):
        mu, sd = cumulative_demand(example4, 1, 2)
        assert mu == 60.0
        assert sd == pytest.approx(math.sqrt(25 + 100))

    def test_all_pairs_present(self, example4):
        segs = build_segments(example4, segments=6)
        assert set(segs) == {(j, t) for t in range(1, 5) for j in range(1, t + 1)}
        assert segs[(1, 4)].mean == 160.0

    def test_missing_pair_rejected(self, example4):
        segs = build_segments(example4, segments=6)
        del segs[(2, 3)]
        with pytest.raises(ValueError, match=r"\(j=2, t=3\)"):
            build_minlp_s(example4, segs)

    @settings(max_examples=40, deadline=None)
    @given(T=st.integers(1, 9), n_seg=st.integers(3, 21),
           strategy=st.sampled_from(["equal-probability", "minimax"]),
           data=st.data())
    def test_matches_per_piece_reference(self, T, n_seg, strategy, data):
        """Every field of every piece, in float hex and repr (so in type
        too), against summing each pair in a loop and the scalar piece
        formulas; with zero-sd and zero-mean periods, and cv = 1.5 for
        negative breakpoints."""
        means = data.draw(st.lists(
            st.just(0.0) | st.floats(0, 300).map(lambda v: round(v, 2)),
            min_size=T, max_size=T))
        cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3, 1.5]),
                                 min_size=T, max_size=T))
        inst = make_instance(T, K=50.0, h=1.0, b=10.0, c=0.0, means=means,
                             std_devs=[m * v for m, v in zip(means, cvs)])
        _assert_segments_match_reference(inst, n_seg - 1, strategy)

    def test_worked_example_matches_reference(self, example4):
        """So does cumulative_demand, which sums in the same order."""
        _assert_segments_match_reference(example4, 10, "minimax")
        for (j, t), pw in reference_segments(example4, 10, "minimax").items():
            assert repr(cumulative_demand(example4, j, t)) == \
                repr((pw.mean, pw.std_dev))

    def test_totals_do_not_follow_a_compensated_sum(self, monkeypatch):
        """Demand totals add left to right from 0.0: big-M, level bounds,
        the unit-cost constants in LP bytes, the SDP grid, the bs lower
        bound and the engine's total mean stay the same when sum()
        compensates, as it does from Python 3.12 on."""
        means = [0.1, 0.7, 12.3, 0.2, 3.3, 0.6]
        # the premise: the two orders disagree on these means
        assert _compensated_sum(means) != sum(means)

        def snapshot():
            # a new instance each time: an instance caches its totals
            inst = make_instance(6, K=80.0, h=1.0, b=9.0, c=1.5, means=means,
                                 std_devs=[0.3, 0.17, 2.9, 0.11, 0.7, 0.13])
            segs = build_segments(inst, segments=4)
            big_m = default_big_m(inst)
            grid = default_grid(inst, step=0.001)
            return (big_m, default_big_m(inst, -3.7), level_bounds(inst, big_m),
                    render_lp(build_joint(inst, segs)),
                    render_lp(build_minlp_s(inst, segs, initial_inventory=-3.7)),
                    render_lp(build_minlp_S(inst, segs)),
                    grid.lower, grid.upper, HeuristicConfig().lower_bound_for(inst),
                    CycleTable(inst, segs).engine(1).total_mean)

        plain = snapshot()
        monkeypatch.setattr(builtins, "sum", _compensated_sum)
        assert repr(snapshot()) == repr(plain)

    def test_zero_horizon_rejected(self):
        from sspolicy.domain import CostParameters, Instance
        empty = Instance(costs=CostParameters(1, 0, 1, 1), demands=())
        with pytest.raises(Exception, match="empty horizon"):
            build_segments(empty, segments=4)


class TestStructure:
    def test_delta1_fixed(self, example4, segments4):
        m_s = build_minlp_s(example4, segments4)
        col = m_s.index["delta_s_1"]
        assert (m_s.lb[col], m_s.ub[col]) == (0.0, 0.0)
        m_S = build_minlp_S(example4, segments4)
        col = m_S.index["delta_S_1"]
        assert (m_S.lb[col], m_S.ub[col]) == (1.0, 1.0)

    def test_every_period_has_assignment_row(self, example4, segments4):
        m = build_minlp_s(example4, segments4)
        names = set(m.rows.names)
        for t in range(1, 5):
            assert f"cycle_assign_s_{t}" in names

    def test_joint_has_link_rows(self, example4, segments4):
        m = build_joint(example4, segments4)
        names = set(m.rows.names)
        assert {"link_cost", "link_order", "def_C_S", "def_G_s",
                "pin_I0_S"} <= names
        assert m.submodels == ("S", "s")

    def test_joint_objective_drops_noorder_period1(self, example4, segments4):
        m = build_joint(example4, segments4)
        cols, coefs = m.objective

        def weight(name):
            return coefs[cols == m.index[name]].sum()

        assert weight("H_s_1") == 0.0
        assert weight("B_s_1") == 0.0
        assert weight("H_S_1") == 1.0
        assert weight("B_s_2") == 10.0

    def test_equality_flag_only_where_unpressured(self, example4, segments4):
        m = build_joint(example4, segments4)
        pw = m.piecewise
        needing = {(m.names[c], t) for c, t in zip(pw.selector[pw.equality].tolist(),
                                                    pw.period[pw.equality].tolist())}
        assert needing == {("P_s_1_1", 1)}
        m_s = build_minlp_s(example4, segments4)
        assert not m_s.piecewise.equality.any()

    def test_big_m_formula(self, example4):
        expect = 160 + 6 * math.sqrt(25 + 100 + 225 + 100)
        assert default_big_m(example4) == pytest.approx(expect)
        assert default_big_m(example4, fixed_i0=-50) == pytest.approx(expect + 50)


# published worked-example values: free minimum of the no-order model and
# its argmin, the fixed-level cost, and the joint model's triple
class TestWorkedExample:
    def test_minlp_s_free(self, example4, segments4):
        res = solve_exact(build_minlp_s(example4, segments4))
        assert res.objective == pytest.approx(266.298, abs=2)
        assert res.value("I0_s") == pytest.approx(70.3, abs=1.5)

    def test_minlp_s_fixed_at_15(self, example4, segments4):
        res = solve_exact(build_minlp_s(example4, segments4,
                                        initial_inventory=15.0))
        assert res.objective == pytest.approx(366.298, abs=2)
        assert res.value("I0_s") == 15.0

    def test_minlp_S_equals_free_plus_K(self, example4, segments4):
        res_S = solve_exact(build_minlp_S(example4, segments4))
        res_s = solve_exact(build_minlp_s(example4, segments4))
        assert res_S.objective - res_s.objective == pytest.approx(100.0, abs=1e-6)
        assert res_S.objective == pytest.approx(366.298, abs=2)
        assert res_S.value("I0_S") == pytest.approx(70.3, abs=1.5)

    def test_minlp_S_with_zero_fixed_cost(self, example4, segments4):
        free = make_instance(horizon=4, K=0, h=1, b=10, c=0,
                             means=[20, 40, 60, 40], cv=0.25)
        segs = build_segments(free, segments=10, strategy="minimax")
        res_S = solve_exact(build_minlp_S(free, segs))
        res_s = solve_exact(build_minlp_s(free, segs))
        assert res_S.objective == pytest.approx(res_s.objective, abs=1e-6)

    def test_joint_matches_published_triple(self, example4, segments4):
        res = solve_exact(build_joint(example4, segments4))
        assert res.value("I0_s") == pytest.approx(15.0, abs=1.5)
        assert res.value("I0_S") == pytest.approx(70.3, abs=1.5)
        assert res.value("C_S") == pytest.approx(366.138, abs=3)
        assert res.value("G_s") == pytest.approx(res.value("C_S"), abs=1e-6)
        assert res.value("I0_s") <= res.value("I0_S")

    def test_joint_suffix_k3(self, example4):
        suffix = example4.suffix(3)
        segs = build_segments(suffix, segments=10, strategy="minimax")
        res = solve_exact(build_joint(suffix, segs))
        assert res.value("I0_S") == pytest.approx(116.6, abs=1.5)

    def test_joint_feasible_under_huge_fixed_cost(self, example4):
        pricey = make_instance(horizon=4, K=1e5, h=1, b=10, c=0,
                               means=[20, 40, 60, 40], cv=0.25)
        segs = build_segments(pricey, segments=10, strategy="minimax")
        res = solve_exact(build_joint(pricey, segs))
        assert res.status == "optimal"
        assert res.value("I0_s") <= res.value("I0_S")

    def test_zero_demand_zero_cost(self):
        inst = make_instance(horizon=3, K=50, h=1, b=5, c=0,
                             means=[0, 0, 0], std_devs=[0, 0, 0])
        segs = build_segments(inst, segments=6)
        res = solve_exact(build_minlp_s(inst, segs, initial_inventory=0.0))
        assert res.objective == pytest.approx(0.0, abs=1e-9)
        assert all(res.value(f"delta_s_{t}") == 0 for t in (1, 2, 3))


class TestSemantics:
    def test_cycle_selection_unique_and_consistent(self, example4, segments4):
        """Exactly one P per period; its start is 1 or an ordering period
        with no later order before t."""
        res = solve_exact(build_minlp_s(example4, segments4))
        a = res.assignment
        for t in range(1, 5):
            ones = [j for j in range(1, t + 1) if round(a[f"P_s_{j}_{t}"]) == 1]
            assert len(ones) == 1
            j = ones[0]
            assert j == 1 or round(a[f"delta_s_{j}"]) == 1
            assert all(round(a[f"delta_s_{k}"]) == 0 for k in range(j + 1, t + 1))

    def test_linearized_cost_bounds_exact_cost(self, example4, segments4):
        """At the solved point, the model cost upper-bounds the exact
        loss-based cost of the same decisions, within the summed shifts."""
        from sspolicy.loss import complementary_loss
        res = solve_exact(build_minlp_s(example4, segments4))
        a = res.assignment
        exact = 0.0
        shift_budget = 0.0
        for t in range(1, 5):
            j = next(j for j in range(1, t + 1) if round(a[f"P_s_{j}_{t}"]) == 1)
            pw = segments4[(j, t)]
            y = a[f"I_s_{t}"] + pw.mean
            h_exact = complementary_loss(y, pw.mean, pw.std_dev)
            b_exact = h_exact - a[f"I_s_{t}"]
            exact += 1 * h_exact + 10 * b_exact
            exact += 100 * round(a[f"delta_s_{t}"])
            shift_budget += (1 + 10) * pw.error_bound
        assert res.objective >= exact - 1e-9
        assert res.objective <= exact + shift_budget + 1e-9

    def test_cut_rows_are_redundant_at_optimum(self, example4, segments4):
        """Dropping the segment cut rows leaves the optimum unchanged."""
        model = build_minlp_s(example4, segments4)
        res_with = solve_exact(model)
        rows = model.rows
        keep = rows.kind != CUT
        assert not keep.all()
        model.rows = RowTable(*(getattr(rows, f.name)[keep] for f in fields(RowTable)))
        res_without = solve_exact(model)
        assert res_with.objective == pytest.approx(res_without.objective, abs=1e-9)

    def test_verify_assignment_catches_violations(self, example4, segments4):
        model = build_minlp_s(example4, segments4)
        res = solve_exact(model)
        assert verify_assignment(model, res.assignment) == []
        broken = dict(res.assignment)
        broken["H_s_2"] += 0.5
        names = [n for n, _ in verify_assignment(model, broken)]
        assert any("loss_s" in n or "cut" in n for n in names)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_verify_assignment_reports_non_finite(self, example4, segments4,
                                                  value):
        """A non-finite entry, in a dict or a column vector, is reported
        as its column's bound violated by inf, with no arithmetic warning;
        an unbounded column is no exception."""
        model = build_joint(example4, segments4)
        res = solve_exact(model)
        for name in ("I_s_2", "C_S"):
            broken = dict(res.assignment, **{name: value})
            expected = [(f"bound_{name}", math.inf)]
            assert verify_assignment(model, broken) == expected
            assert verify_assignment(model, model.vector(broken)) == expected


def _loop_violations(model, a, tol=1e-6):
    """verify_assignment's checks one column, row and rule at a time, with
    each rule's envelope from its PiecewiseLoss."""
    names, bad = model.names, {}
    for col, name in enumerate(names):
        lb, ub = model.lb[col], model.ub[col]
        bad[f"bound_{name}"] = max(lb - a[name], a[name] - ub, 0.0)
        if model.binary[col] and lb != ub:
            bad[f"integrality_{name}"] = abs(a[name] - round(a[name]))
    rows, m = model.rows, model.rows.matrix
    for r in range(len(rows)):
        terms = zip(m.indices[m.indptr[r]:m.indptr[r + 1]],
                    m.data[m.indptr[r]:m.indptr[r + 1]])
        lhs = sum(coef * a[names[col]] for col, coef in terms)
        if rows.kind[r] == INDICATOR and round(a[names[rows.condition[r]]]) != 0:
            continue
        rhs = rows.rhs[r]
        bad[rows.names[r]] = {"<=": lhs - rhs, ">=": rhs - lhs,
                              "==": abs(lhs - rhs)}[rows.sense[r]]
    pw = model.piecewise
    for r in range(len(pw)):
        if round(a[names[pw.selector[r]]]) != 1:
            continue
        piece = model.segments[(pw.start[r], pw.period[r])]
        level = a[names[pw.inventory[r]]]
        upper = float(piece.upper(level + piece.mean))
        bad[f"loss_{pw.label[r]}_{pw.start[r]}_{pw.period[r]}"] = max(
            abs(a[names[pw.holding[r]]] - upper),
            abs(a[names[pw.backorder[r]]] - (upper - level)))
    return {name: v for name, v in bad.items() if v > tol}


@pytest.mark.parametrize("build", [build_minlp_s, build_joint])
def test_verify_assignment_matches_loop(example4, segments4, build):
    """Perturbed optima are judged alike by the array checks and by a loop
    over the same rows and the rules' own piecewise functions."""
    model = build(example4, segments4)
    optimum = solve_exact(model).assignment
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = dict(optimum)
        for col in rng.choice(len(model.names), size=4, replace=False):
            name = model.names[col]
            a[name] = float(1 - round(a[name]) if model.binary[col]
                            else a[name] + rng.normal(0.0, 5.0))
        got = verify_assignment(model, a)
        assert [v for _, v in got] == sorted((v for _, v in got), reverse=True)
        expected = _loop_violations(model, a)
        assert {name for name, _ in got} == set(expected)
        for name, amount in got:
            assert amount == pytest.approx(expected[name], rel=1e-9, abs=1e-9)


def _assert_same_array(got, ref, what):
    assert (got.dtype, got.shape) == (ref.dtype, ref.shape), what
    assert got.tobytes() == ref.tobytes(), what  # zeros' signs included


def _assert_emitted(instance, segments):
    """build_joint's model equals the emitter's, array for array and in LP
    bytes; a suffix view's emitter reference reads the suffix's own pieces
    as a plain dict, not the table's slices."""
    got = build_joint(instance, segments)
    ref = _emit_joint(instance, period_pieces(instance, dict(segments)), segments)
    assert (got.kind, got.instance, got.big_m, got.submodels, got.segments) == \
        (ref.kind, ref.instance, ref.big_m, ref.submodels, ref.segments)
    assert list(got.names) == ref.names and dict(got.index) == ref.index
    assert got.objective_constant == ref.objective_constant
    arrays = [("lb", got.lb, ref.lb), ("ub", got.ub, ref.ub),
              ("binary", got.binary, ref.binary)]
    arrays += [(f"objective {i}", a, b)
               for i, (a, b) in enumerate(zip(got.objective, ref.objective))]
    arrays += [(f"matrix.{f}", getattr(got.rows.matrix, f), getattr(ref.rows.matrix, f))
               for f in ("data", "indices", "indptr")]
    arrays += [(f"rows.{f.name}", getattr(got.rows, f.name), getattr(ref.rows, f.name))
               for f in fields(RowTable) if f.name != "matrix"]
    arrays += [(f"piecewise.{f.name}", getattr(got.piecewise, f.name),
                getattr(ref.piecewise, f.name)) for f in fields(PiecewiseRules)]
    for what, a, b in arrays:
        _assert_same_array(a, b, what)
    assert render_lp(got) == render_lp(ref)


def _assert_suffixes_emitted(instance, segments):
    table = CycleTable(instance, segments)
    for k in range(1, instance.horizon + 1):
        view = table.suffix(k)
        _assert_emitted(view.instance, view)


def test_joint_skeleton_matches_emitter_on_grid():
    """Every suffix of every 9th 8-period grid instance, from one table."""
    config = BenchmarkConfig(horizon=8)
    hcfg = config.heuristic_config()
    for inst in build_instances(config)[::9]:
        _assert_suffixes_emitted(inst, build_segments(
            inst, segments=hcfg.cells, strategy=hcfg.strategy))


@settings(max_examples=25, deadline=None)
@given(T=st.integers(1, 8), K=st.sampled_from([0.0, 40.0, 150.0]),
       c=st.sampled_from([0.0, 1.5]), n_seg=st.integers(3, 21),
       strategy=st.sampled_from(["equal-probability", "minimax"]),
       data=st.data())
def test_joint_skeleton_matches_emitter(T, K, c, n_seg, strategy, data):
    """K = 0, c > 0, zero-sd periods and 3..21 linear segments, from a
    plain segment dict and from every suffix view of its table."""
    means = data.draw(st.lists(st.floats(0, 30).map(lambda v: round(v, 1)),
                               min_size=T, max_size=T))
    cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=T, max_size=T))
    inst = make_instance(T, K=K, h=1.3, b=9.0, c=c, means=means,
                         std_devs=[m * v for m, v in zip(means, cvs)])
    segs = build_segments(inst, segments=n_seg - 1, strategy=strategy)
    _assert_emitted(inst, segs)
    _assert_suffixes_emitted(inst, segs)


def test_joint_skeleton_shares_structure_read_only(example4, segments4):
    """Models of one key share their structural arrays, which refuse
    writes; each owns its numeric arrays."""
    a = build_joint(example4, segments4)
    b = build_joint(example4.suffix(1), build_segments(example4, segments=10))
    shared = [(a.rows.matrix.indices, b.rows.matrix.indices),
              (a.rows.matrix.indptr, b.rows.matrix.indptr),
              (a.rows.names, b.rows.names), (a.rows.sense, b.rows.sense),
              (a.rows.kind, b.rows.kind), (a.rows.condition, b.rows.condition),
              (a.binary, b.binary), (a.objective[0], b.objective[0])]
    shared += [(getattr(a.piecewise, f), getattr(b.piecewise, f))
               for f in ("selector", "inventory", "holding", "backorder",
                         "start", "period", "label", "equality")]
    for x, y in shared:
        assert np.shares_memory(x, y)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = x[1]
    assert a.names is b.names and a.index is b.index
    with pytest.raises(TypeError):
        a.names[0] = "renamed"
    with pytest.raises(TypeError):
        a.index["renamed"] = 0
    owned = [(a.lb, b.lb), (a.ub, b.ub), (a.objective[1], b.objective[1]),
             (a.rows.rhs, b.rows.rhs), (a.rows.matrix.data, b.rows.matrix.data),
             (a.piecewise.shift, b.piecewise.shift),
             (a.piecewise.slopes, b.piecewise.slopes),
             (a.piecewise.intercepts, b.piecewise.intercepts)]
    for x, y in owned:
        assert x.flags.writeable and not np.shares_memory(x, y)


def test_joint_skeleton_keeps_plain_dict_errors(example4):
    segs = build_segments(example4, segments=6)
    del segs[(2, 3)]
    with pytest.raises(ValueError, match=r"segments missing .*\(j=2, t=3\)"):
        build_joint(example4, segs)
    segs[(2, 3)] = build_segments(example4, segments=8)[(2, 3)]
    with pytest.raises(ValueError, match=r"segment count mismatch at \(j=2, t=3\)"):
        build_joint(example4, segs)


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every piece of both 270-instance grids in three "
                           "partitions; set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("cells, strategy", [
    (10, "minimax"), (10, "equal-probability"), (20, "minimax")],
    ids=["10-minimax", "10-equal-probability", "20-minimax"])
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_segments_match_reference(horizon, cells, strategy):
    for inst in build_instances(BenchmarkConfig(horizon=horizon)):
        _assert_segments_match_reference(inst, cells, strategy)


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every suffix of both 270-instance grids (minutes); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_joint_skeleton(horizon):
    config = BenchmarkConfig(horizon=horizon)
    hcfg = config.heuristic_config()
    for inst in build_instances(config):
        _assert_suffixes_emitted(inst, build_segments(
            inst, segments=hcfg.cells, strategy=hcfg.strategy))
