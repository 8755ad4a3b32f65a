"""The paired-benchmark tool's statistics and argument checks, on synthetic
runs (no benchmark is executed)."""
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "instances_per_s", "unit": "1/s", "better": "higher", "bound": 0.2}
SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}


def _pairs(base, change, name="instances_per_s", digests=((), ())):
    return [{"base": {"metrics": {name: b}, "block_digests": list(digests[0])},
             "change": {"metrics": {name: c}, "block_digests": list(digests[1])}}
            for b, c in zip(base, change)]


BASE = [10.0 + 0.1 * i for i in range(10)]  # quartiles 10.225 and 10.675


def test_ties_count_for_neither_side():
    s = bench_pairs.summarize(_pairs(BASE, BASE), [RATE])["instances_per_s"]
    assert (s["change_wins"], s["base_wins"]) == (0, 0)
    assert not s["claim_rule_holds"]
    assert s["within_bound"]


def test_claim_holds_on_nine_wins_and_a_gap_above_the_iqr():
    change = [b + 1.0 for b in BASE]
    change[3] = BASE[3] - 0.5
    s = bench_pairs.summarize(_pairs(BASE, change), [RATE])["instances_per_s"]
    assert (s["change_wins"], s["base_wins"]) == (9, 1)
    assert s["claim_rule_holds"]


def test_claim_fails_on_eight_wins():
    change = [b + 1.0 for b in BASE]
    change[3] = change[7] = BASE[0] - 1.0
    s = bench_pairs.summarize(_pairs(BASE, change), [RATE])["instances_per_s"]
    assert s["change_wins"] == 8
    assert not s["claim_rule_holds"]


def test_claim_fails_on_a_gap_inside_the_iqr():
    change = [b + 0.2 for b in BASE]  # ten wins, but 0.2 < 0.45
    s = bench_pairs.summarize(_pairs(BASE, change), [RATE])["instances_per_s"]
    assert s["change_wins"] == 10
    assert not s["claim_rule_holds"]


@pytest.mark.parametrize("spec, factor, within", [
    (RATE, 0.81, True), (RATE, 0.79, False),    # higher is better
    (SETUP, 1.24, True), (SETUP, 1.26, False),  # lower is better
])
def test_within_bound(spec, factor, within):
    change = [b * factor for b in BASE]
    s = bench_pairs.summarize(_pairs(BASE, change, spec["name"]), [spec])
    assert s[spec["name"]]["within_bound"] is within


@pytest.mark.parametrize("digests, agree", [
    ((["a", "b"], ["a", "b"]), True),
    ((["a", "b"], ["a"]), True),          # only shared blocks are compared
    ((["a", "b"], ["a", "c"]), False),
    (([], []), False),                    # no shared block proves nothing
])
def test_digests_agree(digests, agree):
    assert bench_pairs.digests_agree(_pairs([1.0], [1.0], digests=digests)) is agree


def _args(workload):
    return ["--label", "x", "--base", "HEAD", "--first-seed", "1",
            "--workload", workload]


@pytest.mark.parametrize("workload", ["gap8:0", "gap8:-2", "gap8:1.5", "gap8:x"])
def test_bad_pair_count_rejected(workload):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(_args(workload))


def test_pair_count_parsed():
    assert bench_pairs.parse_args(_args("gap8:3")).workload == [("gap8", 3)]
    assert bench_pairs.parse_args(_args("oracle25")).workload == [("oracle25", 10)]


def test_traced_runs_share_an_instance_count(monkeypatch):
    """Both sides' traced runs stop at the fewest instances any untraced
    run reached, whichever side ran more blocks, and the file records it."""
    pairs = [{"base": {"instances_run": 60}, "change": {"instances_run": 90}},
             {"base": {"instances_run": 90}, "change": {"instances_run": 120}}]
    limit = bench_pairs.trace_limit(pairs)
    assert limit == 60
    calls = []

    def fake_run(root, command):
        calls.append((root, command))
        n = int(command[command.index("--max-instances") + 1])
        return {"report": {"settings": {"instances_run": n},
                           "per_layer": {"x.self_s": {"value": 1.0}},
                           "accounting": {}, "missing_layers": []}}

    monkeypatch.setattr(bench_pairs, "run_bench", fake_run)
    args = bench_pairs.parse_args(_args("gap8") + ["--trace-seed", "5",
                                                   "--trace-seed", "6"])
    traced = bench_pairs.traced_pairs({"base": "b", "change": "c"}, "gap8",
                                      limit, args)
    assert [root for root, _ in calls] == ["b", "c", "c", "b"]
    for _, command in calls:
        assert command[command.index("--max-instances") + 1] == "60"
        assert float(command[command.index("--seconds") + 1]) >= 1e9
    assert traced["max_instances"] == 60
    assert {r["instances_run"] for r in traced["runs"]} == {60}


def _report(instances, wall_s, speed, rate):
    """The parts of a bench/run.py report and result line that
    run_record reads."""
    return {"report": {"settings": {"instances_run": instances,
                                    "wall_s": {"untraced": wall_s},
                                    "speed_p50": speed},
                       "end_to_end": {"instances_per_s": {"value": rate}},
                       "block_digests": ["a"], "checks": {"problems": []}},
            "result": {"correct": True, "attempted": instances, "failed": 0}}


def test_runs_keep_raw_rates():
    """Each run keeps its unscaled wall seconds, probe speed and raw rate
    beside the scaled metric, and each side gets its median raw rate."""
    base = [bench_pairs.run_record("base", 1, _report(60, 12.0, 0.9, 5.4)),
            bench_pairs.run_record("base", 2, _report(64, 8.0, 0.8, 6.4)),
            bench_pairs.run_record("base", 3, _report(70, 10.0, 0.9, 6.3))]
    change = [bench_pairs.run_record("change", 1, _report(66, 11.0, 0.8, 5.3)),
              bench_pairs.run_record("change", 2, _report(72, 9.0, 0.9, 7.2)),
              bench_pairs.run_record("change", 3, _report(88, 11.0, 1.0, 7.0))]
    record = base[0]
    assert (record["wall_s"], record["speed_p50"]) == (12.0, 0.9)
    assert record["raw_instances_per_s"] == 5.0
    assert record["metrics"] == {"instances_per_s": 5.4}
    pairs = [{"base": b, "change": c} for b, c in zip(base, change)]
    assert bench_pairs.raw_rates(pairs) == {"base": 7.0, "change": 8.0}
