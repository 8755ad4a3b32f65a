import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from oracle_support import one_shot_jensen_values
from sspolicy.loss import (
    Partition, approximation_error, cached_partition, complementary_loss,
    loss, make_partition, minimax_boundaries, piecewise_loss,
)

ROOT = Path(__file__).resolve().parent.parent
loss_module = sys.modules[Partition.__module__]  # the package exports a loss()

# Frozen oracle values, computed by direct quadrature of the normal density
# (see the derivations in this file's history: E[max(w-x,0)] integrated with
# scipy.integrate.quad and cell means integrated per cell).
PHI0 = 0.3989422804014327
HALF_NORMAL_MEAN = 0.7978845608028654
E_W_EQUAL = {2: 0.120656049671, 6: 0.029366595027, 11: 0.014287210223}


def test_loss_at_zero_standard():
    assert loss(0.0, 0.0, 1.0) == pytest.approx(PHI0, abs=1e-12)


def test_loss_far_right_tail():
    assert loss(1e6, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_loss_deterministic_demand():
    assert loss(3.0, 5.0, 0.0) == 2.0
    assert loss(7.0, 5.0, 0.0) == 0.0


def test_complementary_at_zero_standard():
    assert complementary_loss(0.0, 0.0, 1.0) == pytest.approx(PHI0, abs=1e-12)


def test_complementary_far_left_tail():
    assert complementary_loss(-1e6, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_complementary_deterministic_demand():
    assert complementary_loss(7.0, 5.0, 0.0) == 2.0


def test_complementary_identity_on_grid():
    """complementary(x) = x - mean + loss(x) across mean +/- 8 sigma."""
    mean, sd = 37.5, 12.25
    xs = np.linspace(mean - 8 * sd, mean + 8 * sd, 10001)
    lhs = complementary_loss(xs, mean, sd)
    rhs = xs - mean + loss(xs, mean, sd)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


@settings(max_examples=100, deadline=None)
@given(z=st.floats(min_value=-6, max_value=6),
       mean=st.floats(min_value=-100, max_value=100),
       sd=st.floats(min_value=1e-3, max_value=50))
def test_loss_scaling_property(z, mean, sd):
    """loss(mean + z*sd, mean, sd) = sd * loss(z, 0, 1)."""
    lhs = loss(mean + z * sd, mean, sd)
    rhs = sd * loss(z, 0.0, 1.0)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, sd)


class TestPartition:
    def test_two_cells_equal_probability(self):
        part = make_partition(2)
        assert part.probabilities == pytest.approx((0.5, 0.5), abs=1e-12)
        assert part.conditional_means == pytest.approx(
            (-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN), abs=1e-9)

    def test_total_expectation_zero(self):
        for n in (2, 5, 6, 11):
            part = make_partition(n)
            p = np.asarray(part.probabilities)
            m = np.asarray(part.conditional_means)
            assert abs(float(p @ m)) < 1e-9
            assert abs(p.sum() - 1.0) < 1e-12

    def test_six_cells_symmetric_increasing(self):
        part = make_partition(6)
        m = np.asarray(part.conditional_means)
        assert np.all(np.diff(m) > 0)
        assert m[:3] == pytest.approx(-m[:2:-1], abs=1e-9)

    def test_too_few_cells(self):
        with pytest.raises(ValueError):
            make_partition(1)

    @pytest.mark.parametrize("segments", [2.5, 4.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("strategy", ["equal-probability", "minimax"])
    def test_cell_count_must_be_an_integer(self, segments, strategy):
        with pytest.raises(ValueError, match="need an integer of at least 2 segments"):
            make_partition(segments, strategy)

    def test_numpy_integer_cell_count(self):
        assert make_partition(np.int64(5), "minimax") == make_partition(5, "minimax")

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError, match="sum"):
            Partition((0.5, 0.4), (-1.0, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            Partition((0.5, 0.5), (1.0, -1.0))


class TestApproximationError:
    @pytest.mark.parametrize("n,expected", sorted(E_W_EQUAL.items()))
    def test_equal_probability_values(self, n, expected):
        assert approximation_error(make_partition(n)) == pytest.approx(expected, abs=1e-9)

    def test_monotone_refinement(self):
        assert approximation_error(make_partition(6)) > approximation_error(make_partition(11))

    def test_large_partition_converges(self):
        assert approximation_error(make_partition(1000)) < 1e-3

    def test_nonnegative(self):
        for n in (2, 3, 7):
            assert approximation_error(make_partition(n)) >= 0.0

    def test_minimax_beats_equal_probability(self):
        for n in (6, 11):
            _, e_eq = cached_partition(n, "equal-probability")
            _, e_mm = cached_partition(n, "minimax")
            assert e_mm < e_eq


def assert_row_blocks_match_one_shot(monkeypatch, strategy, n):
    """Partitions and e_W are bit-equal whether the Jensen bound is formed
    in small row blocks or in one dense product (the reference)."""
    with monkeypatch.context() as patch:
        patch.setattr(loss_module, "JENSEN_BLOCK", 4096)  # >= 2 blocks
        blocked = make_partition(n, strategy)
        blocked_error = approximation_error(blocked)
    with monkeypatch.context() as patch:
        patch.setattr(Partition, "jensen_values", one_shot_jensen_values)
        reference = make_partition(n, strategy)
        reference_error = approximation_error(reference)
    assert blocked == reference
    assert blocked_error == reference_error


@pytest.mark.parametrize("strategy", ["equal-probability", "minimax"])
@pytest.mark.parametrize("n", [2, 3, 7, 11, 21])
def test_row_blocks_match_one_shot(monkeypatch, strategy, n):
    assert_row_blocks_match_one_shot(monkeypatch, strategy, n)


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every partition size 2..21 (seconds); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("strategy", ["equal-probability", "minimax"])
def test_full_grid_row_blocks_match_one_shot(monkeypatch, strategy):
    for n in range(2, 22):
        assert_row_blocks_match_one_shot(monkeypatch, strategy, n)


def closed_form_cell_errors(boundaries):
    """Each cell's largest Jensen gap, at its conditional mean m:
    m (Phi(m) - Phi(a)) - phi(a) + phi(m) for the cell [a, b], in numpy
    over all cells at once."""
    a = np.concatenate(([-np.inf], boundaries))
    b = np.concatenate((boundaries, [np.inf]))
    pdf_a, pdf_b = np.exp(-0.5 * a * a), np.exp(-0.5 * b * b)
    m = (pdf_a - pdf_b) / np.sqrt(2.0 * np.pi) / (ndtr(b) - ndtr(a))
    return m * (ndtr(m) - ndtr(a)) + (np.exp(-0.5 * m * m) - pdf_a) / np.sqrt(2.0 * np.pi)


def assert_equal_error(n):
    """Every cell of the n-cell minimax partition has e_W as its error,
    within 1e-9 relative; returns e_W."""
    e_w = approximation_error(make_partition(n, "minimax"))
    errors = closed_form_cell_errors(minimax_boundaries(n))
    assert errors.size == n
    assert np.max(np.abs(errors / e_w - 1.0)) <= 1e-9, n
    return e_w


@pytest.mark.parametrize("n", range(2, 61))
def test_minimax_cells_have_equal_error(n):
    assert_equal_error(n)


def test_minimax_error_falls_with_cell_count():
    e_w = [cached_partition(n, "minimax")[1] for n in range(2, 61)]
    assert all(a > b for a, b in zip(e_w, e_w[1:]))


def test_minimax_ten_cells_in_float_hex():
    """The partition that the grids, the LP goldens and the benchmark read:
    its e_W is 0.005886 (the Nelder-Mead table it replaces read 0.006233)."""
    left = ["-0x1.ba2d46fe1b066p+0", "-0x1.259fe9dcb45a3p+0",
            "-0x1.6f8393fdcac07p-1", "-0x1.63cd0340515fep-2"]
    right = [h[1:] for h in reversed(left)]
    assert [float(b).hex() for b in minimax_boundaries(10)] == [*left, "0x0.0p+0", *right]
    assert cached_partition(10, "minimax")[1] == pytest.approx(0.005886, abs=5e-7)


def test_minimax_partition_leaves_scipy_optimize_unloaded():
    """Importing the package and its CLI and making minimax partitions,
    the grids' 10 cells and 61, load no scipy.optimize."""
    code = ("import sys, sspolicy, sspolicy.cli\n"
            "from sspolicy.loss import cached_partition, make_partition\n"
            "cached_partition(10, 'minimax')\n"
            "make_partition(61, 'minimax')\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="every minimax partition of 2..200 cells (~4 s); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
def test_full_grid_minimax_equal_error():
    e_w = [assert_equal_error(n) for n in range(2, 201)]
    assert all(a > b for a, b in zip(e_w, e_w[1:]))


def test_row_blocks_keep_shape():
    part = make_partition(7)
    x = np.linspace(-3.0, 3.0, 24).reshape(2, 3, 4)
    values = part.jensen_values(x)
    assert values.shape == x.shape
    assert np.array_equal(values.ravel(), one_shot_jensen_values(part, x.ravel()))
    assert part.jensen_values(0.5) == one_shot_jensen_values(part, 0.5)


class TestPiecewiseLoss:
    def test_first_slope_zero_last_one(self):
        for n in (2, 6, 11):
            pw = piecewise_loss(make_partition(n), 40.0, 10.0)
            assert pw.slopes[0] == 0.0
            assert pw.slopes[-1] == 1.0
            assert len(pw.slopes) == n + 1
            assert len(pw.breakpoints) == n

    def test_two_cell_standard_by_hand(self):
        pw = piecewise_loss(make_partition(2), 0.0, 1.0)
        assert pw.breakpoints == pytest.approx(
            (-HALF_NORMAL_MEAN, HALF_NORMAL_MEAN), abs=1e-9)
        assert pw.slopes == pytest.approx((0.0, 0.5, 1.0), abs=1e-12)
        # value at 0 without the shift is the Jensen bound = phi(0)
        assert pw.lower(0.0) == pytest.approx(PHI0, abs=1e-9)
        assert pw.anchor_value == pytest.approx(PHI0 + E_W_EQUAL[2], abs=1e-9)

    def test_breakpoints_scale_with_distribution(self):
        part = make_partition(6)
        pw = piecewise_loss(part, 40.0, 10.0)
        expect = 40.0 + 10.0 * np.asarray(part.conditional_means)
        assert np.allclose(pw.breakpoints, expect, atol=1e-12)
        assert pw.error_bound == pytest.approx(10.0 * E_W_EQUAL[6], abs=1e-8)

    @pytest.mark.parametrize("n", [2, 6, 11])
    def test_sandwich_on_dense_grid(self, n):
        """lower <= true <= lower + e everywhere (10,001 points)."""
        mean, sd = 60.0, 15.0
        pw = piecewise_loss(make_partition(n), mean, sd)
        xs = np.linspace(mean - 8 * sd, mean + 8 * sd, 10001)
        true = complementary_loss(xs, mean, sd)
        lo = pw.lower(xs)
        assert np.all(lo <= true + 1e-9)
        assert np.all(lo + pw.error_bound >= true - 1e-9)

    def test_jensen_tight_at_breakpoints_within_error(self):
        pw = piecewise_loss(make_partition(6), 0.0, 1.0)
        bp = np.asarray(pw.breakpoints)
        gap = complementary_loss(bp, 0.0, 1.0) - pw.lower(bp)
        assert np.all(gap >= -1e-12)
        assert np.all(gap <= pw.error_bound + 1e-12)

    def test_penalty_side_slopes(self):
        """Loss-side slopes are {-1 + l_i}: rise from -1 to 0, staying convex."""
        pw = piecewise_loss(make_partition(11), 40.0, 10.0)
        pen_slopes = np.asarray(pw.slopes) - 1.0
        assert pen_slopes[0] == -1.0
        assert pen_slopes[-1] == 0.0
        assert np.all(np.diff(pen_slopes) > 0)
        xs = np.linspace(-20, 100, 2001)
        assert np.allclose(pw.penalty_lower(xs), pw.lower(xs) - (xs - 40.0), atol=1e-12)
        true = loss(xs, 40.0, 10.0)
        assert np.all(pw.penalty_lower(xs) <= true + 1e-9)
        assert np.all(pw.penalty_upper(xs) >= true - 1e-9)

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError, match="negative std_dev -1.0"):
            piecewise_loss(make_partition(6), 5.0, -1.0)

    def test_degenerate_zero_std(self):
        pw = piecewise_loss(make_partition(6), 5.0, 0.0)
        assert pw.breakpoints == (5.0,) * 6
        assert pw.error_bound == 0.0
        assert pw.lower(7.0) == 2.0
        assert pw.lower(3.0) == 0.0

    def test_induced_function_convex(self):
        pw = piecewise_loss(make_partition(11), 0.0, 1.0)
        xs = np.linspace(-5, 5, 801)
        vals = pw.lower(xs)
        second = np.diff(vals, 2)
        assert np.all(second >= -1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 20), mean=st.floats(0, 300),
           cv=st.sampled_from([0.0, 0.1, 1.5]),
           xs=st.lists(st.floats(-500, 800), min_size=1, max_size=12))
    def test_cached_hinges_match_the_formula(self, n, mean, cv, xs):
        """lower and upper read one cached, read-only pair of arrays and
        stay hex-equal to rebuilding them from the tuples on every call,
        for scalars, vectors and matrices."""
        pw = piecewise_loss(make_partition(n), mean, mean * cv)
        breakpoints, steps = pw.hinges
        assert pw.hinges[0] is breakpoints and pw.hinges[1] is steps
        assert not (breakpoints.flags.writeable or steps.flags.writeable)

        def formula(x):
            x = np.asarray(x, dtype=float)
            p = np.diff(np.asarray(pw.slopes))
            return (np.maximum(x[..., None] - np.asarray(pw.breakpoints), 0.0) @ p)[()]

        for x in (xs[0], xs, np.resize(xs, (3, len(xs)))):
            want = formula(x)
            for got, ref in ((pw.lower(x), want), (pw.upper(x), want + pw.error_bound)):
                assert np.shape(got) == np.shape(ref)
                assert np.asarray(got).tobytes() == np.asarray(ref).tobytes()
