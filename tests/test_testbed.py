import builtins
import dataclasses
import gc
import math
import os
import re
import statistics

import pytest

import sspolicy.testbed as testbed_module
from sspolicy.domain import ValidationError, running_sums, validate
from sspolicy.heuristics import bs_policy, mp_policy
from sspolicy.sdp import solve_sdp
from sspolicy.simulate import estimate_gap
from sspolicy.testbed import (
    BenchmarkConfig, BenchmarkReport, InstanceResult,
    build_instances, demand_means, instance_id, instance_seed,
    read_detail_csv, run_benchmark, run_instance, write_detail_csv,
    write_summary_csv,
)


class TestDemandPatterns:
    def test_lcy1_8period(self):
        assert demand_means("LCY1", 8) == (15, 16, 15, 14, 11, 7, 6, 3)

    def test_sta_25period(self):
        assert demand_means("STA", 25) == (100,) * 25

    def test_lcy1_peak(self):
        assert demand_means("LCY1", 25)[12] == 190

    def test_unknown_pattern(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            demand_means("WAVE", 8)

    def test_unsupported_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            demand_means("STA", 12)

    def test_emp_trailing_zeros_have_zero_sd(self):
        config = BenchmarkConfig(horizon=25, patterns=("EMP2",))
        inst = build_instances(config)[0]
        assert inst.demands[-1].mean == 0
        assert inst.demands[-1].std_dev == 0


class TestInstanceGrid:
    def test_default_grid_size(self):
        assert len(build_instances(BenchmarkConfig())) == 270

    def test_25_period_default_grid(self):
        instances = build_instances(BenchmarkConfig(horizon=25))
        assert len(instances) == 270
        assert {i.costs.fixed for i in instances} == {500.0, 1000.0, 1500.0}
        assert {i.horizon for i in instances} == {25}

    def test_single_pattern_slice(self):
        cfg = BenchmarkConfig(patterns=("STA",))
        assert len(build_instances(cfg)) == 27

    def test_instances_validate(self):
        for inst in build_instances(BenchmarkConfig(patterns=("LCY1", "EMP3"))):
            validate(inst)

    def test_identifier_pure_function(self):
        a = instance_id("STA", 200, 5, 0.1, 8)
        assert a == "h8-STA-K200-b5-cv0.1"
        assert instance_seed(7, a) == instance_seed(7, a)
        assert instance_seed(7, a) != instance_seed(8, a)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            BenchmarkConfig(horizon=9)
        with pytest.raises(ValueError, match="pattern"):
            BenchmarkConfig(patterns=("XYZ",))
        with pytest.raises(ValueError, match="method"):
            BenchmarkConfig(methods=("greedy",))

    @pytest.mark.parametrize("field, value, message", [
        ("fixed_costs", (200.0, -1.0), "fixed ordering cost K = -1.0"),
        ("fixed_costs", (float("nan"),), "fixed ordering cost K = nan"),
        ("penalty_costs", (-5.0,), "penalty cost b = -5.0"),
        ("penalty_costs", (0.0,), "penalty cost b = 0.0"),
        ("cvs", (-0.1,), "coefficient of variation cv = -0.1"),
        ("holding_cost", 0.0, "holding cost h = 0.0"),
        ("unit_cost", float("inf"), "unit cost c = inf"),
        ("initial_inventory", float("nan"), "initial inventory nan"),
        ("segments", 2, "need at least 3 linear segments (2 cells), got 2"),
        ("strategy", "bogus", "unknown partition strategy 'bogus'"),
        ("bs_step_size", -1, "bs_step_size must be positive, got -1"),
        ("bs_step_size", 0.0, "bs_step_size must be positive, got 0.0"),
        ("replications", 0, "replications must be a positive integer, got 0"),
        ("replications", 2.5, "replications must be a positive integer, got 2.5"),
        ("patterns", (), "empty patterns list"),
        ("fixed_costs", (), "empty fixed_costs list"),
        ("penalty_costs", (), "empty penalty_costs list"),
        ("cvs", (), "empty cvs list"),
        ("replications", True, "replications must be a positive integer, got True"),
        ("seed", "7", "seed must be an integer, got '7'"),
        ("seed", None, "seed must be an integer, got None"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("seed", True, "seed must be an integer, got True"),
        ("horizon", 8.0, "horizon must be 8 or 25, got 8.0"),
        ("fixed_costs", ("200",), "fixed_costs must be a list of numbers, got ('200',)"),
        ("fixed_costs", 200.0, "fixed_costs must be a list of numbers, got 200.0"),
        ("penalty_costs", (True,), "penalty_costs must be a list of numbers, got (True,)"),
        ("cvs", (0.1, None), "cvs must be a list of numbers, got (0.1, None)"),
        ("holding_cost", "1", "holding_cost must be a number, got '1'"),
        ("unit_cost", False, "unit_cost must be a number, got False"),
        ("initial_inventory", None, "initial_inventory must be a number, got None"),
        ("bs_step_size", "0.1", "bs_step_size must be a number, got '0.1'"),
        ("bs_step_size", True, "bs_step_size must be a number, got True"),
        ("patterns", "STA", "patterns must be a list, got 'STA'"),
        ("methods", "bs", "methods must be a list, got 'bs'"),
        ("patterns", ("STA", "RAND", "STA"), "patterns lists 'STA' twice"),
        ("methods", ("bs", "bs"), "methods lists 'bs' twice"),
        ("fixed_costs", (200.0, 200.0), "fixed_costs lists 200.0 twice"),
        ("penalty_costs", (5.0, 10.0, 5), "penalty_costs lists 5 twice"),
        ("cvs", (0.1, 0.2, 0.1), "cvs lists 0.1 twice"),
        ("bs_step_size", None, "bs_step_size must be a number, got None"),
    ])
    def test_config_values_rejected(self, field, value, message):
        """A malformed grid value stops the config, not one row per
        instance; c >= b is the only invalid instance the grid builds."""
        with pytest.raises(ValidationError, match=re.escape(message)):
            BenchmarkConfig(**{field: value})


@pytest.fixture(scope="module")
def small_report():
    cfg = BenchmarkConfig(patterns=("STA",), fixed_costs=(200.0,),
                          penalty_costs=(5.0, 10.0), cvs=(0.1, 0.3),
                          methods=("bs", "mp"), replications=2000)
    return cfg, run_benchmark(cfg)


class TestBenchmarkRun:

    def test_all_rows_present(self, small_report):
        cfg, report = small_report
        assert len(report.results) == 4 * 2
        assert all(r.status == "ok" for r in report.results)

    def test_gaps_small(self, small_report):
        _, report = small_report
        for method in ("bs", "mp"):
            gaps = report.ok_gaps(method)
            assert statistics.mean(gaps) < 1.5

    def test_summary_grouping(self, small_report):
        cfg, report = small_report
        rows = report.summary_rows()
        groupings = {(r[0], r[1], r[2]) for r in rows}
        assert ("pattern", "STA", "bs") in groupings
        assert ("b", "5", "mp") in groupings
        assert ("cv", "0.3", "bs") in groupings
        assert ("overall", "mean", "bs") in groupings

    def test_detail_round_trip(self, small_report, tmp_path):
        _, report = small_report
        path = tmp_path / "detail.csv"
        write_detail_csv(report, path)
        back = read_detail_csv(path)
        assert len(back) == len(report.results)
        by_key = {(r.instance_id, r.method): r for r in report.results}
        for row in back:
            orig = by_key[(row.instance_id, row.method)]
            assert row.gap_pct == pytest.approx(orig.gap_pct, abs=1e-9)

    def test_summary_csv_written_with_note(self, small_report, tmp_path):
        _, report = small_report
        path = tmp_path / "summary.csv"
        write_summary_csv(report, path)
        text = path.read_text()
        assert text.startswith("# note: h=1 c=0")
        assert "overall,mean,bs" in text

    def test_note_states_the_config(self, small_report, tmp_path):
        """Both files' note gives the config's own h, c and I_0."""
        _, report = small_report
        report = BenchmarkReport(dataclasses.replace(
            report.config, holding_cost=2.5, unit_cost=1.5,
            initial_inventory=-3.0), report.results)
        for write in (write_detail_csv, write_summary_csv):
            path = tmp_path / f"{write.__name__}.csv"
            write(report, path)
            assert path.read_text().splitlines()[0] == (
                "# note: h=2.5 c=1.5 assumed for all grid instances "
                "(unstated in the source grids); I_0=-3")

    def test_resume_equals_fresh(self, small_report, tmp_path):
        """Partial detail file: the rerun completes it without re-simulating
        done rows, and the final report matches a fresh run."""
        cfg, fresh = small_report
        path = tmp_path / "detail.csv"
        partial = type(fresh)(config=cfg, results=fresh.results[:3])
        write_detail_csv(partial, path)
        resumed = run_benchmark(cfg, detail_path=path)
        assert len(resumed.results) == len(fresh.results)
        fresh_map = {(r.instance_id, r.method): r.gap_pct for r in fresh.results}
        for r in resumed.results:
            assert r.gap_pct == pytest.approx(
                fresh_map[(r.instance_id, r.method)], abs=1e-9)

    def test_resume_leaves_foreign_rows_out_of_the_report(self, tmp_path):
        """An STA sweep, then a RAND sweep into the same file: the second
        report holds only RAND rows, and the file keeps both."""
        path = tmp_path / "detail.csv"
        grid = dict(fixed_costs=(200.0,), penalty_costs=(10.0,), cvs=(0.1, 0.2),
                    replications=500)
        sta = run_benchmark(BenchmarkConfig(patterns=("STA",), **grid),
                            detail_path=path)
        rand = run_benchmark(BenchmarkConfig(patterns=("RAND",), **grid),
                             detail_path=path)
        assert {r.pattern for r in rand.results} == {"RAND"}
        gaps = rand.ok_gaps("bs")
        assert len(gaps) == 2
        overall = next(r[3] for r in rand.summary_rows() if r[0] == "overall")
        assert overall == sum(gaps) / len(gaps)
        on_file = {(r.instance_id, r.gap_pct) for r in read_detail_csv(path)}
        assert on_file == {(r.instance_id, r.gap_pct)
                           for r in sta.results + rand.results}

    @pytest.mark.parametrize("change", [{"seed": 7}, {"replications": 300}])
    def test_resume_reruns_rows_of_another_seed_or_count(self, tmp_path, change):
        path = tmp_path / "detail.csv"
        grid = dict(patterns=("STA",), fixed_costs=(200.0,), penalty_costs=(10.0,),
                    cvs=(0.1,), replications=500)
        run_benchmark(BenchmarkConfig(**grid), detail_path=path)
        cfg = BenchmarkConfig(**{**grid, **change})
        resumed = run_benchmark(cfg, detail_path=path)
        fresh = run_benchmark(cfg)
        for report in (resumed, BenchmarkReport(cfg, read_detail_csv(path))):
            assert [(r.instance_id, r.seed, r.replications, r.gap_pct)
                    for r in report.results] == \
                [(r.instance_id, r.seed, r.replications, r.gap_pct)
                 for r in fresh.results]

    def test_parallel_equals_serial(self):
        cfg = BenchmarkConfig(patterns=("RAND",), fixed_costs=(300.0,),
                              penalty_costs=(10.0,), cvs=(0.1, 0.2),
                              methods=("bs",), replications=1000)
        serial = run_benchmark(cfg, jobs=1)
        parallel = run_benchmark(cfg, jobs=2)
        s = {(r.instance_id, r.method): r.gap_pct for r in serial.results}
        p = {(r.instance_id, r.method): r.gap_pct for r in parallel.results}
        assert s == p

    @pytest.mark.parametrize("jobs", [0, -2, True, 2.0, "2"])
    def test_bad_jobs_rejected(self, jobs):
        cfg = BenchmarkConfig(patterns=("STA",), fixed_costs=(200.0,),
                              penalty_costs=(10.0,), cvs=(0.1,))
        with pytest.raises(ValidationError,
                           match=f"jobs must be a positive integer, got {jobs!r}"):
            run_benchmark(cfg, jobs=jobs)

    def test_pool_starts_one_worker_per_pending_instance(self, monkeypatch):
        """A large `jobs` starts no more workers than there are instances;
        the pool is a stand-in that records its size and maps in-process."""
        sizes = []

        class Pool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(testbed_module, "ProcessPoolExecutor", Pool)
        cfg = BenchmarkConfig(patterns=("STA",), fixed_costs=(200.0,),
                              penalty_costs=(10.0,), cvs=(0.1, 0.2),
                              replications=200)
        report = run_benchmark(cfg, jobs=1000)
        assert sizes == [2]
        assert [r.gap_pct for r in report.results] == \
            [r.gap_pct for r in run_benchmark(cfg).results]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_oracle_failure_is_recorded(self, jobs):
        """A unit cost of 20, at or above every penalty, makes every
        instance invalid, which the oracle's validation names: the sweep
        still finishes, with one failed row per instance and method."""
        cfg = BenchmarkConfig(patterns=("STA",), unit_cost=20.0,
                              methods=("bs", "mp"), replications=200)
        report = run_benchmark(cfg, jobs=jobs)
        assert len(report.results) == 27 * 2
        for r in report.results:
            assert r.status.startswith("failed: oracle: ValidationError: ")
        assert not report.ok_gaps("bs") and not report.summary_rows()


def test_summary_is_exact_mean_of_detail(small_report):
    """Aggregates are plain means of the per-instance gaps; nothing is
    re-simulated during aggregation."""
    _, report = small_report
    rows = report.summary_rows()
    overall = next(r[3] for r in rows if r[0] == "overall" and r[2] == "bs")
    gaps = report.ok_gaps("bs")
    assert overall == running_sums(gaps)[-1] / len(gaps)


def test_summary_means_do_not_use_builtin_sum(monkeypatch):
    """The summary means add left to right whatever sum() does: with sum()
    compensated, as from Python 3.12 on, the rows keep their bits. Summed
    left to right, 0.1 + 0.2 + 0.3 is 0.6000000000000001; compensated, 0.6."""
    config = BenchmarkConfig(patterns=("STA",), methods=("bs",))
    names = [inst.name for inst in build_instances(config)[:3]]
    report = BenchmarkReport(config, [
        InstanceResult(instance_id=name, method="bs", status="ok",
                       replications=1, seed=0, gap_pct=gap)
        for name, gap in zip(names, (0.1, 0.2, 0.3))])
    rows = report.summary_rows()
    assert ("overall", "mean", "bs", (0.1 + 0.2 + 0.3) / 3) in rows
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "sum",
                      lambda values, start=0: start + math.fsum(values))
        compensated = report.summary_rows()
    assert [tuple(map(repr, r)) for r in compensated] == \
        [tuple(map(repr, r)) for r in rows]


def _reference_rows(config, instance):
    """run_instance's rows composed method by method: each heuristic on a
    table of its own, priced by estimate_gap alone."""
    oracle = solve_sdp(instance)
    seed = instance_seed(config.seed, instance.name)
    rows = []
    for method in config.methods:
        heuristic = bs_policy if method == "bs" else mp_policy
        policy = heuristic(instance, config.heuristic_config())
        gap = estimate_gap(instance, policy, oracle.expected_cost,
                           config.replications, seed)
        rows.append(InstanceResult(
            instance_id=instance.name, method=method, status="ok",
            gap_pct=gap.gap_pct, sim_mean=gap.simulation.mean,
            sim_stderr=gap.simulation.standard_error,
            oracle_cost=oracle.expected_cost,
            replications=config.replications, seed=seed))
    return rows


def _as_tuples(rows):
    return [dataclasses.astuple(r) for r in rows]


class TestRunInstance:
    """One cycle table and one demand block per instance change no row."""

    CONFIG = BenchmarkConfig(methods=("bs", "mp"), replications=3000)

    @pytest.fixture(scope="class")
    def instances(self):
        return build_instances(self.CONFIG)[::45]

    def test_rows_match_method_by_method(self, instances):
        for instance in instances:
            assert _as_tuples(run_instance(self.CONFIG, instance)) == \
                _as_tuples(_reference_rows(self.CONFIG, instance)), instance.name

    def test_rows_follow_methods_order(self, instances):
        config = dataclasses.replace(self.CONFIG, methods=("mp", "bs"))
        rows = run_instance(config, instances[0])
        assert [r.method for r in rows] == ["mp", "bs"]
        forward = run_instance(self.CONFIG, instances[0])
        assert _as_tuples(rows) == _as_tuples(forward[::-1])

    def test_failed_method_is_its_own_row(self, instances, monkeypatch):
        """A heuristic that raises fails its row alone; the other method's
        row is bit-equal to a run of that method by itself."""
        instance = instances[1]
        alone = run_instance(dataclasses.replace(self.CONFIG, methods=("bs",)),
                             instance)

        def broken(*args, **kwargs):
            raise RuntimeError("joint solve failed at suffix k=3: boom")

        monkeypatch.setattr(testbed_module, "mp_policy", broken)
        bs_row, mp_row = run_instance(self.CONFIG, instance)
        assert _as_tuples([bs_row]) == _as_tuples(alone)
        assert mp_row.status == "failed: joint solve failed at suffix k=3: boom"
        assert (mp_row.method, mp_row.seed, mp_row.replications) == \
            ("mp", bs_row.seed, bs_row.replications)
        assert mp_row.gap_pct != mp_row.gap_pct  # nan

    def test_heuristics_share_one_table(self, instances, monkeypatch):
        tables = []
        for name, fn in (("bs_policy", bs_policy), ("mp_policy", mp_policy)):
            def spy(*args, fn=fn, **kwargs):
                tables.append(kwargs["table"])
                return fn(*args, **kwargs)
            monkeypatch.setattr(testbed_module, name, spy)
        run_instance(self.CONFIG, instances[0])
        assert len(tables) == 2 and tables[0] is tables[1]

    @pytest.mark.parametrize("call", [
        lambda config, instance: run_instance(config, instance),
        lambda config, instance: bs_policy(instance, config.heuristic_config()),
        lambda config, instance: mp_policy(instance, config.heuristic_config()),
    ], ids=["run_instance", "bs_policy", "mp_policy"])
    def test_leaves_no_cyclic_garbage(self, instances, call):
        """Everything an instance's run built is freed by reference
        counting: with the cyclic collector off, a collection afterwards
        finds nothing unreachable."""
        instance = instances[2]
        call(self.CONFIG, instance)  # first-use caches and imports
        gc.collect()
        gc.disable()
        try:
            call(self.CONFIG, instance)
            found = gc.collect()
        finally:
            gc.enable()
        assert found == 0


@pytest.mark.skipif(not os.environ.get("SSPOLICY_FULL_BENCHMARK"),
                    reason="the full grids method by method take minutes; "
                           "set SSPOLICY_FULL_BENCHMARK=1")
@pytest.mark.parametrize("horizon", [8, 25], ids=["8-period", "25-period"])
def test_full_grid_shared_instance_rows_match_reference(horizon):
    """Every grid instance's bs and mp rows equal the per-method
    composition: each heuristic on its own table, priced alone."""
    config = BenchmarkConfig(horizon=horizon, methods=("bs", "mp"))
    for instance in build_instances(config):
        assert _as_tuples(run_instance(config, instance)) == \
            _as_tuples(_reference_rows(config, instance)), instance.name
