import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_support import one_shot_jensen_values
from sspolicy.loss import (
    Partition, approximation_error, cached_partition, complementary_loss,
    loss, make_partition, piecewise_loss, search_minimax_boundaries,
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


def searched_partition(n, strategy):
    """The partition as the quantiles or the minimax search make it; the
    search runs the Jensen bound, the bundled table does not."""
    if strategy == "minimax":
        return loss_module._cells_from_boundaries(search_minimax_boundaries(n))
    return make_partition(n, strategy)


def assert_row_blocks_match_one_shot(monkeypatch, strategy, n):
    """Partitions and e_W are bit-equal whether the Jensen bound is formed
    in small row blocks or in one dense product (the reference)."""
    with monkeypatch.context() as patch:
        patch.setattr(loss_module, "JENSEN_BLOCK", 4096)  # >= 2 blocks
        blocked = searched_partition(n, strategy)
        blocked_error = approximation_error(blocked)
    with monkeypatch.context() as patch:
        patch.setattr(Partition, "jensen_values", one_shot_jensen_values)
        reference = searched_partition(n, strategy)
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


def tabulated_hex(n):
    return [b.hex() for b in loss_module._minimax_table()[n]]


@pytest.mark.parametrize("n", [*range(2, 13), 20])
def test_minimax_table_matches_search(n):
    """The bundled boundaries are the search's, bit for bit."""
    assert [float(b).hex() for b in search_minimax_boundaries(n)] == tabulated_hex(n)


def test_minimax_table_covers_2_to_40_cells():
    record = json.loads((ROOT / "src/sspolicy/data/minimax_boundaries.json")
                        .read_text(encoding="utf-8"))
    assert (record["numpy"], record["scipy"]) == ("2.4.6", "1.17.1")
    assert sorted(map(int, record["boundaries"])) == list(range(2, 41))
    assert all(len(tabulated_hex(n)) == n - 1 for n in range(2, 41))


def test_untabulated_count_is_searched(monkeypatch):
    table = loss_module._minimax_table()
    calls = []

    def search(n):
        calls.append(n)
        return search_minimax_boundaries(n)

    monkeypatch.setattr(loss_module, "_minimax_table",
                        lambda: {n: b for n, b in table.items() if n != 6})
    monkeypatch.setattr(loss_module, "search_minimax_boundaries", search)
    assert make_partition(6, "minimax") == loss_module._cells_from_boundaries(
        np.array(table[6]))
    make_partition(7, "minimax")
    assert calls == [6]


def test_minimax_partition_leaves_scipy_optimize_unloaded():
    """Importing the package and its CLI and making the default minimax
    partition load no scipy.optimize: only the search needs it."""
    code = ("import sys, sspolicy, sspolicy.cli\n"
            "from sspolicy.loss import cached_partition\n"
            "cached_partition(10, 'minimax')\n"
            "print('scipy.optimize' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_minimax_table_check_reports_a_changed_bit(tmp_path, monkeypatch, capsys):
    """tools/minimax_table.py --check exits 1 and names a count whose
    tabulated boundaries differ from the search in one bit."""
    spec = importlib.util.spec_from_file_location(
        "minimax_table", ROOT / "tools/minimax_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    changed = tabulated_hex(4)
    changed[0] = float(np.nextafter(float.fromhex(changed[0]), 0.0)).hex()
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"numpy": "2.4.6", "scipy": "1.17.1", "boundaries": {
        "2": tabulated_hex(2), "3": tabulated_hex(3), "4": changed}}))
    monkeypatch.setattr(tool, "TABLE", table)
    assert tool.main(["--check"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["checked"], record["differ"]) == (3, [4])


def _fail_minimize(monkeypatch):
    """Make every Nelder-Mead run stop as one that hit maxiter."""
    from scipy import optimize

    def failed(fun, x0, **kwargs):
        return optimize.OptimizeResult(
            x=np.asarray(x0), fun=fun(x0), success=False, status=2, nit=4000,
            message="Maximum number of iterations has been exceeded.")

    monkeypatch.setattr(optimize, "minimize", failed)


def test_minimax_search_raises_when_not_converged(monkeypatch):
    """A search that stops short names its cell count and the optimizer's
    message rather than return a partition that is not minimax."""
    _fail_minimize(monkeypatch)
    with pytest.raises(loss_module.MinimaxSearchError,
                       match="minimax search for 60 cells did not converge: "
                             "Maximum number of iterations has been exceeded"):
        search_minimax_boundaries(60)


def test_minimax_table_reports_unconverged_counts(tmp_path, monkeypatch, capsys):
    """tools/minimax_table.py --check names each count whose search did not
    converge in its JSON line and exits 1; --write writes nothing. Two
    cells need no search."""
    spec = importlib.util.spec_from_file_location(
        "minimax_table", ROOT / "tools/minimax_table.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"numpy": "2.4.6", "scipy": "1.17.1", "boundaries": {
        n: tabulated_hex(int(n)) for n in ("2", "3", "4")}}))
    monkeypatch.setattr(tool, "TABLE", table)
    _fail_minimize(monkeypatch)
    assert tool.main(["--check"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["checked"], record["differ"]) == (3, [])
    assert sorted(record["failed"]) == ["3", "4"]
    assert "minimax search for 4 cells did not converge" in record["failed"]["4"]
    before = table.read_text()
    assert tool.main(["--write"]) == 1
    assert "minimax search for 3 cells" in json.loads(capsys.readouterr().out)["failed"]
    assert table.read_text() == before


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="searches every tabulated count 2..40 (~90 s); "
                           "set SSPOLICY_FULL_BENCHMARK=1")
def test_full_grid_minimax_table_matches_search():
    out = subprocess.run([sys.executable, str(ROOT / "tools/minimax_table.py"), "--check"],
                         capture_output=True, text=True, check=False)
    assert out.returncode == 0, out.stdout + out.stderr
    record = json.loads(out.stdout)
    assert (record["checked"], record["differ"]) == (39, [])


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
