import builtins
import dataclasses
import math
import os
import re
from dataclasses import fields

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import (_emit_joint, reference_pieces, reference_rows,
                            reference_segments, suffix_segments)
from sspolicy.domain import make_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import HeuristicConfig
from sspolicy.model import (
    CUT, INDICATOR, CsrMatrix, JointStack, PiecewiseRules, RowChecks, RowTable,
    build_joint, build_minlp_s, build_minlp_S, build_segments,
    convolved_demand, default_big_m, default_bounds, level_bounds, pair_row,
    verify_assignment,
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


def _hex(values) -> list:
    return [float(v).hex() for v in np.ravel(values)]


def _assert_segments_match_reference(instance, cells, strategy):
    """Every row of the record, in float hex, against its pair's piece
    from the scalar formulas: breakpoints, mean, error bound and slope
    steps, and the model rows from the scalar intercepts."""
    got = build_segments(instance, segments=cells, strategy=strategy)
    ref = reference_segments(instance, cells, strategy)
    assert got.partition == (cells, strategy)
    pairs = len(ref)
    for name in ("breakpoints", "slopes", "lines", "cuts"):
        assert getattr(got, name).shape == (pairs, cells + (name != "breakpoints"))
    assert got.means.shape == got.errors.shape == (pairs,)
    for (j, t), pw in ref.items():
        r = pair_row(j, t)
        where = (j, t)
        assert _hex(got.breakpoints[r]) == _hex(pw.breakpoints), where
        assert _hex(got.means[r]) == _hex(pw.mean), where
        assert _hex(got.errors[r]) == _hex(pw.error_bound), where
        assert _hex(got.steps) == _hex(np.diff(pw.slopes)), where
        for a, b in zip((got.slopes, got.lines, got.cuts), reference_rows(pw)):
            assert _hex(a[r]) == _hex(b), where


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
        means, sds = convolved_demand(example4)
        assert means[0, 1] == 60.0
        assert sds[0, 1] == pytest.approx(math.sqrt(25 + 100))

    def test_all_pairs_present(self, example4):
        """One row per pair (j, t), pair_row's order; every array refuses
        writes."""
        segs = build_segments(example4, segments=6)
        assert [pair_row(j, t) for t in range(1, 5) for j in range(1, t + 1)] \
            == list(range(10))
        assert segs.breakpoints.shape == (10, 6) and segs.steps.shape == (6,)
        assert segs.means[pair_row(1, 4)] == 160.0
        assert segs.means[pair_row(3, 4)] == 100.0
        assert segs.partition == (6, "equal-probability")
        for a in (segs.breakpoints, segs.means, segs.errors, segs.steps,
                  segs.slopes, segs.lines, segs.cuts):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_missing_pair_rejected(self, example4):
        """Segments short of the instance's pairs, the rows of a 3-period
        instance for a 4-period one, are rejected naming both sizes."""
        segs = build_segments(example4.suffix(2), segments=6)
        with pytest.raises(ValueError, match="segments hold 6 cycle pairs; "
                                             "a 4-period instance has 10"):
            build_minlp_s(example4, segs)

    def test_intercepts_reproduce_lower(self, example4):
        """Each row's lines less its error bound, a max of lines, are the
        lower bound of its pair's piece."""
        segs = build_segments(example4, segments=6)
        pieces = reference_pieces(example4, segs)
        ys = np.linspace(-20.0, 250.0, 501)
        for (j, t), pw in pieces.items():
            r = pair_row(j, t)
            via_max = np.max(ys[:, None] * segs.slopes[r] + segs.lines[r], axis=1)
            assert np.allclose(via_max - segs.errors[r], pw.lower(ys), atol=1e-10)

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
        """So does convolved_demand, which sums in the same order."""
        _assert_segments_match_reference(example4, 10, "minimax")
        means, sds = convolved_demand(example4)
        for (j, t), pw in reference_segments(example4, 10, "minimax").items():
            assert _hex((means[j - 1, t - 1], sds[j - 1, t - 1])) == \
                _hex((pw.mean, pw.std_dev))

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
        assert tuple(m.columns) == ("S", "s")

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
        pieces = reference_pieces(example4, segments4)
        for t in range(1, 5):
            j = next(j for j in range(1, t + 1) if round(a[f"P_s_{j}_{t}"]) == 1)
            pw = pieces[(j, t)]
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
        cut = {f.name: getattr(rows, f.name)[keep]
               for f in fields(RowTable) if f.name not in ("matrix", "checks")}
        m = rows.matrix
        kept = sparse.csr_array((m.data, m.indices, m.indptr), shape=m.shape)[keep]
        cut["matrix"] = CsrMatrix.of(kept.data, kept.indices, kept.indptr,
                                     kept.shape)
        model.rows = RowTable(**cut, checks=RowChecks.of(
            cut["sense"], cut["kind"], cut["condition"]))
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
    each rule's envelope from its pair's PiecewiseLoss."""
    names, bad = model.names, {}
    pieces = reference_pieces(model.instance, model.segments)
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
        piece = pieces[(pw.start[r], pw.period[r])]
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
    bytes."""
    got = build_joint(instance, segments)
    ref = _emit_joint(instance, segments)
    assert (got.kind, got.instance, got.big_m, tuple(got.columns)) == \
        (ref.kind, ref.instance, ref.big_m, tuple(ref.columns))
    assert got.segments is ref.segments
    assert list(got.names) == ref.names and dict(got.index) == ref.index
    assert got.objective_constant == ref.objective_constant
    _assert_same_arrays(got, ref)
    assert render_lp(got) == render_lp(ref)


def _assert_same_arrays(got, ref):
    """Every array of two models equal in dtype, shape and bytes."""
    arrays = [("lb", got.lb, ref.lb), ("ub", got.ub, ref.ub),
              ("binary", got.binary, ref.binary)]
    arrays += [(f"objective {i}", a, b)
               for i, (a, b) in enumerate(zip(got.objective, ref.objective))]
    arrays += [(f"matrix.{f}", getattr(got.rows.matrix, f), getattr(ref.rows.matrix, f))
               for f in ("data", "indices", "indptr")]
    arrays += [(f"rows.{f.name}", getattr(got.rows, f.name), getattr(ref.rows, f.name))
               for f in fields(RowTable) if f.name not in ("matrix", "checks")]
    arrays += [(f"rows.checks.{f.name}", getattr(got.rows.checks, f.name),
                getattr(ref.rows.checks, f.name)) for f in fields(RowChecks)]
    arrays += [("free_binaries", got.free_binaries, ref.free_binaries)]
    arrays += [(f"piecewise.{f.name}", getattr(got.piecewise, f.name),
                getattr(ref.piecewise, f.name)) for f in fields(PiecewiseRules)]
    for what, a, b in arrays:
        _assert_same_array(a, b, what)


def _assert_suffixes_emitted(instance, segments):
    """Every suffix k from the instance's rows of pairs (j, t), j >= k,
    which are the suffix's own pairs."""
    for k in range(1, instance.horizon + 1):
        _assert_emitted(instance.suffix(k),
                        suffix_segments(segments, instance.horizon, k))


def test_joint_skeleton_matches_emitter_on_grid():
    """Every suffix of every 10th 8-period grid instance, from the
    instance's segments, at the grid's c = 0 and at c = 1.5: one skeleton
    serves both costs."""
    for config in (BenchmarkConfig(horizon=8),
                   BenchmarkConfig(horizon=8, unit_cost=1.5)):
        hcfg = config.heuristic_config()
        for inst in build_instances(config)[::10]:
            _assert_suffixes_emitted(inst, build_segments(
                inst, segments=hcfg.cells, strategy=hcfg.strategy))


@settings(max_examples=25, deadline=None)
@given(T=st.integers(1, 8), K=st.sampled_from([0.0, 40.0, 150.0]),
       c=st.sampled_from([0.0, 1.5]), n_seg=st.integers(3, 21),
       strategy=st.sampled_from(["equal-probability", "minimax"]),
       data=st.data())
def test_joint_skeleton_matches_emitter(T, K, c, n_seg, strategy, data):
    """K = 0, c > 0, zero-sd periods and 3..21 linear segments, from the
    instance's segments and from every suffix's share of them."""
    means = data.draw(st.lists(st.floats(0, 30).map(lambda v: round(v, 1)),
                               min_size=T, max_size=T))
    cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=T, max_size=T))
    inst = make_instance(T, K=K, h=1.3, b=9.0, c=c, means=means,
                         std_devs=[m * v for m, v in zip(means, cvs)])
    segs = build_segments(inst, segments=n_seg - 1, strategy=strategy)
    _assert_emitted(inst, segs)
    _assert_suffixes_emitted(inst, segs)


def _stack_block(stack, model, b):
    """Block b of a filled JointStack as the arrays of a model of its own:
    each cut to the block and moved back to the block's own columns, rows
    and rules. The rules' pieces stay the stack's rows of the instance's
    Segments. The other fields are left to be taken from a reference."""
    ends = [(list(s) + [n])[b:b + 2] for s, n in (
        (stack.col_starts, len(model.names)), (stack.row_starts, len(model.rows)),
        (stack.rule_starts, len(model.piecewise)))]
    (c0, c1), (r0, r1), (u0, u1) = [map(int, e) for e in ends]

    def inside(a, lo, hi):
        return (a >= lo) & (a < hi)

    rows = model.rows
    indptr = rows.matrix.indptr[r0:r1 + 1]
    at = slice(int(indptr[0]), int(indptr[-1]))
    matrix = CsrMatrix.of(rows.matrix.data[at], rows.matrix.indices[at] - c0,
                          indptr - indptr[0], (r1 - r0, c1 - c0))
    condition = rows.condition[r0:r1]
    condition = np.where(condition >= 0, condition - c0, condition)
    checks = rows.checks
    indicator = inside(checks.indicators, r0, r1)
    block_checks = RowChecks(checks.sign[r0:r1], checks.equality[r0:r1],
                             checks.indicators[indicator] - r0,
                             checks.conditions[indicator] - c0)
    block_rows = RowTable(matrix, rows.names[r0:r1], rows.sense[r0:r1],
                          rows.rhs[r0:r1], rows.kind[r0:r1], condition,
                          block_checks)
    pw = model.piecewise
    rules = {f.name: getattr(pw, f.name)[u0:u1] for f in fields(PiecewiseRules)}
    for name in ("selector", "inventory", "holding", "backorder"):
        rules[name] = rules[name] - c0
    cols, coefs = model.objective
    term = inside(cols, c0, c1)
    free = model.free_binaries
    return dict(names=model.names[c0:c1], lb=model.lb[c0:c1], ub=model.ub[c0:c1],
                binary=model.binary[c0:c1], objective=(cols[term] - c0, coefs[term]),
                rows=block_rows, piecewise=PiecewiseRules(**rules),
                free_binaries=free[inside(free, c0, c1)] - c0)


@settings(max_examples=25, deadline=None)
@given(T=st.integers(1, 8), K=st.sampled_from([0.0, 40.0, 150.0]),
       c=st.sampled_from([0.0, 1.5]), n_seg=st.integers(3, 21),
       strategy=st.sampled_from(["equal-probability", "minimax"]),
       data=st.data())
def test_joint_stack_blocks_match_build_joint(T, K, c, n_seg, strategy, data):
    """Block k of one stacked fill equals build_joint of suffix k's own
    segments with its level bounds set to the filled pair, array for array
    and in LP bytes, and so do its columns and
    linked costs; each of its rules points at the instance's row holding
    the means, slopes and lines of the suffix model's rule, byte for byte;
    the stack's objective constant is the blocks' sum."""
    means = data.draw(st.lists(st.floats(0, 30).map(lambda v: round(v, 1)),
                               min_size=T, max_size=T))
    cvs = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.3]), min_size=T, max_size=T))
    inst = make_instance(T, K=K, h=1.3, b=9.0, c=c, means=means,
                         std_devs=[m * v for m, v in zip(means, cvs)])
    table = CycleTable(inst, build_segments(inst, segments=n_seg - 1,
                                            strategy=strategy))
    stack = JointStack.of(T, n_seg, T)
    bounds = default_bounds(inst)
    model = stack.fill(inst, table.segments, bounds)
    refs = []
    for k in range(1, T + 1):
        suffix = inst.suffix(k)
        ref = build_joint(suffix, build_segments(
            suffix, segments=n_seg - 1, strategy=strategy))
        levels = [i for c in ref.columns.values() for i in (c.initial, *c.inventory)]
        lb, ub = ref.lb.copy(), ref.ub.copy()
        lb[levels], ub[levels] = bounds
        ref = dataclasses.replace(ref, lb=lb, ub=ub)
        block = _stack_block(stack, model, k - 1)
        piece, ref_piece = block["piecewise"].piece, ref.piecewise.piece
        for name in ("means", "slopes", "lines"):
            assert (getattr(model.segments, name)[piece].tobytes()
                    == getattr(ref.segments, name)[ref_piece].tobytes()), (k, name)
        # the rows pointed at agree, so the block reads its own segments
        block["piecewise"] = dataclasses.replace(block["piecewise"], piece=ref_piece)
        got = dataclasses.replace(ref, **block)
        assert list(got.names) == list(ref.names)
        _assert_same_arrays(got, ref)
        assert render_lp(got) == render_lp(ref)
        c0 = int(stack.col_starts[k - 1])
        for label, cols in ref.columns.items():
            moved = stack.columns[k - 1][label]
            assert moved.initial - c0 == cols.initial
            for f in ("inventory", "holding", "backorder", "order"):
                assert np.array_equal(getattr(moved, f) - c0, getattr(cols, f))
            assert np.array_equal(moved.rules - stack.rule_starts[k - 1], cols.rules)
        assert list(stack.linked[k - 1] - c0) == [ref.index["C_S"], ref.index["G_s"]]
        refs.append(ref.objective_constant)
    assert model.objective_constant == math.fsum(refs)


def test_row_product_matches_scipy_csr():
    """CsrMatrix's product is bit-equal to scipy.sparse's CSR product, on
    random vectors, over filled 8-suffix stacks of grid instances and
    a stack with a unit cost."""
    config = BenchmarkConfig(horizon=8)
    hc = config.heuristic_config()
    instances = build_instances(config)[::27]
    instances.append(make_instance(8, K=40, h=1, b=10, c=1.5,
                                   means=[20, 0, 35, 10, 25, 5, 40, 15], cv=0.3))
    rng = np.random.default_rng(7)
    for instance in instances:
        segments = build_segments(instance, segments=hc.cells,
                                  strategy=hc.strategy)
        stack = JointStack.of(8, segments.slopes.shape[1], 8)
        model = stack.fill(instance, segments, (-1e4, 1e4))
        m = model.rows.matrix
        ref = sparse.csr_array((m.data, m.indices, m.indptr), shape=m.shape)
        for x in [rng.normal(0, 50, m.shape[1]) for _ in range(5)] + [
                np.round(rng.normal(0, 50, m.shape[1]))]:
            got = m @ x
            assert got.dtype == np.float64 and got.shape == (m.shape[0],)
            assert got.tobytes() == (ref @ x).tobytes(), instance.name


def test_joint_skeleton_shares_structure_read_only(example4, segments4):
    """Models of one key share their structural arrays and their piecewise
    rules, which refuse writes; each owns its numeric arrays."""
    a = build_joint(example4, segments4)
    b = build_joint(example4.suffix(1), build_segments(example4, segments=10))
    shared = [(a.rows.matrix.indices, b.rows.matrix.indices),
              (a.rows.matrix.indptr, b.rows.matrix.indptr),
              (a.rows.names, b.rows.names), (a.rows.sense, b.rows.sense),
              (a.rows.kind, b.rows.kind), (a.rows.condition, b.rows.condition),
              (a.binary, b.binary), (a.objective[0], b.objective[0])]
    shared += [(getattr(a.piecewise, f), getattr(b.piecewise, f))
               for f in ("selector", "inventory", "holding", "backorder",
                         "piece", "start", "period", "label", "equality")]
    for x, y in shared:
        assert np.shares_memory(x, y)
        with pytest.raises(ValueError, match="read-only"):
            x[0] = x[1]
    assert a.names is b.names and a.index is b.index
    assert a.piecewise is b.piecewise  # a fill gathers no rule data
    # every fill shares the skeleton's checks and free binaries
    assert a.rows.checks is b.rows.checks and a.free_binaries is b.free_binaries
    with pytest.raises(TypeError):
        a.names[0] = "renamed"
    with pytest.raises(TypeError):
        a.index["renamed"] = 0
    owned = [(a.lb, b.lb), (a.ub, b.ub), (a.objective[1], b.objective[1]),
             (a.rows.rhs, b.rows.rhs), (a.rows.matrix.data, b.rows.matrix.data)]
    for x, y in owned:
        assert x.flags.writeable and not np.shares_memory(x, y)


# every reader of a Segments record, each given an instance and segments
segment_readers = pytest.mark.parametrize("reader", [
    CycleTable, build_minlp_s, build_minlp_S, build_joint,
    lambda inst, segs: JointStack.of(inst.horizon, 7, 1).fill(
        inst, segs, level_bounds(inst, default_big_m(inst)))],
    ids=["CycleTable", "build_minlp_s", "build_minlp_S", "build_joint", "fill"])


@segment_readers
def test_wrong_horizon_segments_rejected(example4, reader):
    """Segments of another horizon, too many pairs or too few, raise one
    ValueError naming both sizes in every reader: a suffix's table or
    model given the full instance's rows, or the full instance given a
    suffix's."""
    full = build_segments(example4, segments=6)
    suffix = example4.suffix(2)
    with pytest.raises(ValueError, match="segments hold 10 cycle pairs; "
                                         "a 3-period instance has 6"):
        reader(suffix, full)
    with pytest.raises(ValueError, match="segments hold 6 cycle pairs; "
                                         "a 4-period instance has 10"):
        reader(example4, build_segments(suffix, segments=6))


@segment_readers
def test_other_instance_segments_rejected(example4, reader):
    """Segments of another instance of the same horizon raise a ValueError
    naming the first period whose demand differs, in every reader; the
    instance's own segments are accepted."""
    other = make_instance(horizon=4, K=100, h=1, b=10, c=0,
                          means=[20, 40, 60, 45], cv=0.25)
    with pytest.raises(ValueError, match=re.escape(
            "segments were built from period 4 demand "
            "NormalDemand(mean=45, std_dev=11.25); the instance's is "
            "NormalDemand(mean=40, std_dev=10.0)")):
        reader(example4, build_segments(other, segments=6))
    # the costs are not the segments': only the demands are compared
    cheaper = dataclasses.replace(
        example4, costs=dataclasses.replace(example4.costs, fixed=50.0))
    reader(cheaper, build_segments(example4, segments=6))


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
@pytest.mark.parametrize("unit_cost", [0.0, 1.5], ids=["c=0", "c=1.5"])
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_joint_skeleton(horizon, unit_cost):
    config = BenchmarkConfig(horizon=horizon, unit_cost=unit_cost)
    hcfg = config.heuristic_config()
    for inst in build_instances(config):
        _assert_suffixes_emitted(inst, build_segments(
            inst, segments=hcfg.cells, strategy=hcfg.strategy))
