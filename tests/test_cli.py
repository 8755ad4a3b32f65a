import json
from pathlib import Path

import pytest

from sspolicy.cli import build_parser, main
from sspolicy.domain import make_instance, read_instance, write_instance
from sspolicy.export import render_lp
from sspolicy.heuristics import HeuristicConfig, read_policy_csv
from sspolicy.model import build_joint, build_minlp_s, build_segments
from sspolicy.sdp import default_grid, discretize_demand
from sspolicy.testbed import read_detail_csv


@pytest.fixture()
def example4_file(tmp_path):
    inst = make_instance(horizon=4, K=100, h=1, b=10, c=0,
                         means=[20, 40, 60, 40], cv=0.25, name="example4")
    path = tmp_path / "example4.json"
    write_instance(inst, path)
    return path


def test_sdp_command(example4_file, tmp_path, capsys):
    g_csv = tmp_path / "g.csv"
    rc = main(["sdp", str(example4_file), "--dump-g", str(g_csv)])
    out = capsys.readouterr().out
    assert rc == 0
    header = out.splitlines()[0].split()
    inst = read_instance(example4_file)
    levels = default_grid(inst).size
    atoms = sum(discretize_demand(d.mean, d.std_dev, 1.0, 0.9999)[0].size
                for d in inst.demands)
    assert header[-5:] == ["levels", str(levels), "level-atom", "cells",
                           str(levels * atoms)]
    lines = [ln.split() for ln in out.splitlines() if ln.strip()]
    row1 = next(ln for ln in lines if ln[0] == "1")
    assert float(row1[1]) == 14.0
    assert float(row1[2]) == 70.0
    assert g_csv.exists()


def test_sdp_grid_step_flag(example4_file, capsys):
    rc = main(["sdp", str(example4_file), "--grid-step", "0.5"])
    assert rc == 0
    assert "grid step 0.5" in capsys.readouterr().out


def test_sdp_missing_file(tmp_path, capsys):
    rc = main(["sdp", str(tmp_path / "nope.json")])
    assert rc == 3
    assert "nope.json" in capsys.readouterr().err


def assert_near_published_bs(policy):
    """The worked example's published bs policy, within 1.5 per level."""
    for got, want in zip(policy.reorder_points, (15.0, 29.01, 58.1, 29.01)):
        assert got == pytest.approx(want, abs=1.5)
    for got, want in zip(policy.order_up_to_levels,
                         (70.2658, 53.9768, 116.553, 53.9768)):
        assert got == pytest.approx(want, abs=1.5)


def test_solve_bs_matches_published(example4_file, tmp_path, capsys):
    out_csv = tmp_path / "policy.csv"
    rc = main(["solve", str(example4_file), "--method", "bs",
               "--segments", "11", "--strategy", "minimax",
               "--step", "0.01", "--out", str(out_csv)])
    assert rc == 0
    assert_near_published_bs(read_policy_csv(out_csv))


def test_solve_unknown_method_usage_error(example4_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(example4_file), "--method", "newton"])
    assert exc.value.code == 2


def test_solve_lp_export_mode(example4_file, tmp_path, capsys):
    out_dir = tmp_path / "lp"
    rc = main(["solve", str(example4_file), "--method", "mp",
               "--lp-dir", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no solving performed" in out
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == [f"suffix_{k:02d}_joint.lp" for k in range(1, 5)]


@pytest.mark.parametrize("method, kind", [("mp", "joint"), ("bs", "s")])
def test_lp_export_matches_per_suffix_segments(example4_file, tmp_path, capsys,
                                               method, kind):
    """The exported files, built from one cycle table, are byte-equal to
    models built from each suffix's own segments."""
    out_dir = tmp_path / "lp"
    rc = main(["solve", str(example4_file), "--method", method, "--segments", "7",
               "--strategy", "minimax", "--lp-dir", str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    instance = read_instance(example4_file)
    build = build_joint if method == "mp" else build_minlp_s
    for k in range(1, instance.horizon + 1):
        suffix = instance.suffix(k)
        segments = build_segments(suffix, segments=6, strategy="minimax")
        expected = render_lp(build(suffix, segments)).encode()
        assert (out_dir / f"suffix_{k:02d}_{kind}.lp").read_bytes() == expected


def test_simulate_round_trip(example4_file, tmp_path, capsys):
    policy_csv = tmp_path / "policy.csv"
    main(["sdp", str(example4_file), "--out", str(policy_csv)])
    capsys.readouterr()
    rc = main(["simulate", str(example4_file), "--policy", str(policy_csv),
               "--reps", "5000", "--seed", "7"])
    out1 = capsys.readouterr().out
    assert rc == 0
    rc = main(["simulate", str(example4_file), "--policy", str(policy_csv),
               "--reps", "5000", "--seed", "7"])
    out2 = capsys.readouterr().out
    assert out1 == out2  # same seed: identical output
    mean = float(out1.splitlines()[1].split(",")[0])
    assert mean == pytest.approx(362.58, rel=0.02)


def test_simulate_requires_seed(example4_file, tmp_path):
    policy_csv = tmp_path / "policy.csv"
    main(["sdp", str(example4_file), "--out", str(policy_csv)])
    with pytest.raises(SystemExit) as exc:
        main(["simulate", str(example4_file), "--policy", str(policy_csv)])
    assert exc.value.code == 2


def test_simulate_single_rep_flagged(example4_file, tmp_path, capsys):
    policy_csv = tmp_path / "policy.csv"
    main(["sdp", str(example4_file), "--out", str(policy_csv)])
    capsys.readouterr()
    rc = main(["simulate", str(example4_file), "--policy", str(policy_csv),
               "--reps", "1", "--seed", "3"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "standard error reported as 0" in captured.err


def test_simulate_rejects_nan_policy(example4_file, tmp_path, capsys):
    policy_csv = tmp_path / "policy.csv"
    policy_csv.write_text("t,s_t,S_t,linked_cost\n"
                          "1,14.0,70.0,nan\n2,nan,60.0,nan\n"
                          "3,50.0,110.0,nan\n4,30.0,60.0,nan\n")
    rc = main(["simulate", str(example4_file), "--policy", str(policy_csv),
               "--reps", "100", "--seed", "7"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "reorder point s_2 is NaN" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("content, message", [
    ("x,y\n1,2\n", "unexpected policy CSV header"),
    ("t,s_t,S_t,linked_cost\n1,2\n", "malformed policy row"),
    ("t,s_t,S_t,linked_cost\n1,abc,70.0,nan\n", "non-numeric field"),
    ("t,s_t,S_t,linked_cost\n1,14.0,70.0,nan\n",
     "policy horizon 1 does not match instance horizon 4"),
    # t must read 1, 2, ..., T: the rows are priced in file order
    ("t,s_t,S_t,linked_cost\n3,50.0,110.0,nan\n1,14.0,70.0,nan\n"
     "2,30.0,60.0,nan\n4,30.0,60.0,nan\n",
     "policy row '3,50.0,110.0,nan\\n' should have t = 1, got '3'"),
    ("t,s_t,S_t,linked_cost\n1,14.0,70.0,nan\n1,30.0,60.0,nan\n"
     "3,50.0,110.0,nan\n4,30.0,60.0,nan\n",
     "policy row '1,30.0,60.0,nan\\n' should have t = 2, got '1'"),
    ("t,s_t,S_t,linked_cost\n1.0,14.0,70.0,nan\n2,30.0,60.0,nan\n"
     "3,50.0,110.0,nan\n4,30.0,60.0,nan\n", "should have t = 1, got '1.0'"),
    ("t,s_t,S_t,linked_cost\nfirst,14.0,70.0,nan\n", "should have t = 1, got 'first'"),
])
def test_simulate_malformed_policy_is_data_error(example4_file, tmp_path,
                                                 capsys, content, message):
    policy_csv = tmp_path / "policy.csv"
    policy_csv.write_text(content)
    rc = main(["simulate", str(example4_file), "--policy", str(policy_csv),
               "--reps", "100", "--seed", "7"])
    assert rc == 3
    assert message in capsys.readouterr().err


def test_solve_step_default_is_the_heuristics_default():
    """One default step, 0.1, for the CLI and the library alike."""
    args = build_parser().parse_args(["solve", "example4.json", "--method", "bs"])
    assert args.step == HeuristicConfig().bs_step_size == 0.1


@pytest.mark.parametrize("args, message", [
    (["sdp", "--grid-step", "0"],
     "grid step must be positive and finite, got 0.0"),
    (["sdp", "--grid-step", "-1"],
     "grid step must be positive and finite, got -1.0"),
    (["sdp", "--truncation", "2"], "demand_truncation must lie in (0.99, 1)"),
    (["simulate", "--reps", "0", "--seed", "7"],
     "need at least one replication, got 0"),
    (["simulate", "--reps", "10", "--seed", "-1"],
     "seed must be a non-negative integer, got -1"),
    (["solve", "--method", "bs", "--step", "inf"],
     "bs_step_size must be finite, got inf"),
    (["solve", "--method", "bs", "--step", "nan"],
     "bs_step_size must be finite, got nan"),
    (["benchmark", "--jobs", "0"], "jobs must be a positive integer, got 0"),
    (["benchmark", "--jobs", "-2"], "jobs must be a positive integer, got -2"),
], ids=["sdp-step-0", "sdp-step-negative", "sdp-truncation", "simulate-reps-0",
        "simulate-seed-negative", "solve-step-inf", "solve-step-nan", "benchmark-jobs-0",
        "benchmark-jobs-negative"])
def test_bad_numeric_arguments_are_data_errors(example4_file, tmp_path, capsys,
                                               args, message):
    command, *options = args
    data_file = example4_file
    if command == "simulate":
        policy_csv = tmp_path / "policy.csv"
        policy_csv.write_text("t,s_t,S_t,linked_cost\n"
                              "1,14.0,70.0,nan\n2,30.0,60.0,nan\n"
                              "3,50.0,110.0,nan\n4,30.0,60.0,nan\n")
        options += ["--policy", str(policy_csv)]
    if command == "benchmark":
        data_file = tmp_path / "bench.json"
        data_file.write_text(json.dumps(
            {"horizon": 8, "patterns": ["STA"], "K": [200], "b": [5],
             "cv": [0.1], "methods": ["bs"], "replications": 100, "seed": 1}))
        options += ["--out-dir", str(tmp_path / "out")]
    rc = main([command, str(data_file), *options])
    err = capsys.readouterr().err
    assert rc == 3
    assert message in err
    assert "Traceback" not in err


def test_benchmark_command_and_resume(tmp_path, capsys):
    config = {"horizon": 8, "patterns": ["STA"], "K": [200], "b": [5],
              "cv": [0.1, 0.2], "methods": ["bs"], "replications": 1000,
              "seed": 99}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    detail_1 = (out_dir / "detail.csv").read_text()
    # rerun resumes from the detail file and reproduces it
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0
    assert (out_dir / "detail.csv").read_text() == detail_1
    summary = (out_dir / "summary.csv").read_text()
    assert "overall,mean,bs" in summary


def test_benchmark_summary_reads_exponent_values(tmp_path, capsys):
    """Grid values that print with an exponent, whose instance ids hold a
    "-" inside a field ("h8-STA-K1e-05-b5-cv1e-05"), are grouped by
    their own values in the summary."""
    config = {"horizon": 8, "patterns": ["STA"], "K": [0.00001], "b": [5],
              "cv": [0.00001, 0.1], "methods": ["bs"], "replications": 1000,
              "seed": 99}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 0, capsys.readouterr().err
    rows = [line.split(",")[:3] for line in
            (out_dir / "summary.csv").read_text().splitlines()]
    for row in (["pattern", "STA", "bs"], ["K", "1e-05", "bs"],
                ["b", "5", "bs"], ["cv", "1e-05", "bs"], ["cv", "0.1", "bs"],
                ["overall", "mean", "bs"]):
        assert row in rows


def test_benchmark_requires_seed(tmp_path, capsys):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"horizon": 8, "patterns": ["STA"]}))
    rc = main(["benchmark", str(cfg_path)])
    assert rc == 3
    assert "seed" in capsys.readouterr().err


def test_benchmark_rejects_negative_penalty(tmp_path, capsys):
    """A malformed config value is a data error before any row is run."""
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"horizon": 8, "patterns": ["STA"],
                                    "b": [-5], "seed": 1}))
    out_dir = tmp_path / "o"
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert rc == 3
    assert "invalid penalty cost b = -5" in captured.err
    assert not out_dir.exists()


@pytest.mark.parametrize("extra, message", [
    ({"replication": 5}, "unknown benchmark config key(s) 'replication'"),
    ({"fixed_costs": [200]}, "unknown benchmark config key(s) 'fixed_costs'"),
    ({"methods": []}, "empty methods list"),
    ({"seed": "7"}, "seed must be an integer, got '7'"),
    ({"methods": "bs"}, "methods must be a list, got 'bs'"),
    ({"bs_step_size": None}, "bs_step_size must be a number, got None"),
])
def test_benchmark_rejects_config_keys(tmp_path, capsys, extra, message):
    """A misspelt key, an empty method list or a value of the wrong type
    stops the run before any output directory exists."""
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps({"horizon": 8, "patterns": ["STA"],
                                    "seed": 1, **extra}))
    out_dir = tmp_path / "o"
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)])
    assert rc == 3
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_benchmark_25_period_slice(tmp_path, capsys):
    """A 25-period config runs like an 8-period one."""
    cfg_path = tmp_path / "bench25.json"
    cfg_path.write_text(json.dumps({"horizon": 25, "methods": ["bs", "mp"],
                                    "replications": 2000, "seed": 1}))
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(tmp_path / "o"),
               "--patterns", "STA", "--K", "500", "--b", "10", "--cv", "0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 rows (0 failures)" in out
    rows = read_detail_csv(tmp_path / "o" / "detail.csv")
    assert [(r.instance_id, r.method, r.status) for r in rows] == [
        ("h25-STA-K500-b10-cv0.1", "bs", "ok"),
        ("h25-STA-K500-b10-cv0.1", "mp", "ok")]


def test_bundled_example_instance(capsys):
    from sspolicy.data import bundled
    rc = main(["sdp", str(bundled("example4.json"))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "expected cost" in out


def test_solve_minimax_has_no_cell_limit(tmp_path, capsys):
    """61 segments (60 minimax cells, beyond any once-tabulated count)
    solve the bundled example near its published policy."""
    from sspolicy.data import bundled
    out_csv = tmp_path / "policy.csv"
    rc = main(["solve", str(bundled("example4.json")), "--method", "bs",
               "--segments", "61", "--strategy", "minimax", "--out", str(out_csv)])
    capsys.readouterr()
    assert rc == 0
    assert_near_published_bs(read_policy_csv(out_csv))


def test_bundled_benchmark_config(tmp_path, capsys):
    """The shipped config reproduces the small-slice gap study; a reduced
    copy keeps this test quick while the full file drives the real run."""
    import json as _json
    from sspolicy.data import bundled
    doc = _json.loads(bundled("benchmark8_sta_rand.json").read_text())
    doc.update({"K": [200], "b": [10], "cv": [0.2], "replications": 2000})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(_json.dumps(doc))
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mean gap" in out


def test_benchmark_slice_flags(tmp_path, capsys):
    """--patterns/--K restrict the grid: one pattern x one K = 9 instances."""
    config = {"horizon": 8, "replications": 500, "seed": 4, "methods": ["bs"]}
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(tmp_path / "o"),
               "--patterns", "STA", "--K", "200"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "9 rows (0 failures)" in out


def test_solve_rejects_malformed_instance_field(tmp_path, capsys):
    """A string of digits given for the demand means is a data error, not
    three periods of demand 1, 2 and 3."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "version": 1, "horizon": 3, "K": 100, "c": 0, "h": 1, "b": 10,
        "initial_inventory": 0, "demand_means": "123",
        "demand_std_devs": [1, 1, 1]}))
    rc = main(["solve", str(path), "--method", "bs"])
    err = capsys.readouterr().err
    assert rc == 3
    assert "demand_means must be a list of numbers, got '123'" in err


def test_solve_notes_unbracketed_periods(example4_file, capsys, monkeypatch):
    """A search lower bound above every reorder point flags all four
    periods, and the command prints the note."""
    monkeypatch.setattr(HeuristicConfig, "lower_bound_for", lambda self, inst: 60.0)
    rc = main(["solve", str(example4_file), "--method", "bs"])
    out = capsys.readouterr().out
    assert rc == 0
    assert ("# reorder point not bracketed from below (search lower bound too "
            "high) in periods (1, 2, 3, 4)") in out


def _bench_config(tmp_path) -> Path:
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(
        {"horizon": 8, "patterns": ["STA"], "K": [200], "b": [5], "cv": [0.1],
         "methods": ["bs"], "replications": 100, "seed": 1}))
    return cfg_path


@pytest.mark.parametrize("edit, message", [
    (lambda text: text.replace(",gap_pct,", ",gap,"),
     "line 3: malformed detail row: missing column 'gap_pct'"),
    (lambda text: text.replace(",100,", ",abc,"),
     "line 3: malformed detail row: invalid literal for int() with base 10: 'abc'"),
], ids=["missing-column", "bad-replications"])
def test_benchmark_resume_rejects_malformed_detail(tmp_path, capsys, edit, message):
    """Resuming from a detail file with a missing column or a malformed
    value is a data error that names the file and line."""
    cfg_path, out_dir = _bench_config(tmp_path), tmp_path / "out"
    assert main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)]) == 0
    detail = out_dir / "detail.csv"
    detail.write_text(edit(detail.read_text()))
    capsys.readouterr()
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"{detail}, {message}" in err


@pytest.mark.parametrize("command", ["benchmark", "lp-export"])
def test_out_dir_naming_a_file_is_data_error(example4_file, tmp_path, capsys,
                                             command):
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "benchmark":
        args = ["benchmark", str(_bench_config(tmp_path)), "--out-dir"]
    else:
        args = ["solve", str(example4_file), "--method", "mp", "--lp-dir"]
    rc = main([*args, str(taken)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "File exists" in err and str(taken) in err


@pytest.mark.parametrize("doc, kind", [("des", "str"), ([1, 2], "list")])
def test_benchmark_config_must_be_object(tmp_path, capsys, doc, kind):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(doc))
    rc = main(["benchmark", str(cfg_path), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert f"benchmark config must be a JSON object, got {kind}" in err
    assert not (tmp_path / "o").exists()
