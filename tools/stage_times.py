"""Wall time of the gap study's per-instance work, stage by stage.

    PYTHONPATH=src python3 tools/stage_times.py --horizon 8 --rounds 5
    PYTHONPATH=/path/to/other/src python3 tools/stage_times.py --horizon 8

For every `--every`-th instance of the grid (BenchmarkConfig(horizon) with
its default heuristic config, replications and seed) it runs what
testbed.run_instance runs, one stage at a time, each timed with
time.perf_counter:

- `sdp`: solve_sdp, the oracle;
- `cycle_table`: heuristics.cycle_table, the instance's segments (the
  cycle records are built on first use, in the next stage);
- `free_minima`: table.engine(k).free_minimum() for every suffix k, which
  includes each engine's relaxation build;
- `bs` and `mp`: bs_policy and then mp_policy on that warm table;
- `pricing`: simulate.estimate_gaps of both policies at the instance's
  seed.

Each round runs every stage of every instance; rounds alternate the
instance order, forward then backward, so that neither end of the grid
always runs on a cold process. It prints one JSON line: per stage the
median over rounds of the mean milliseconds per instance, and each
round's value; the total; pricing as seconds per million
period-replications (replications x periods x policies priced); and the
wall seconds.

`sspolicy` is imported from PYTHONPATH, so the same script times any
checkout's sources. To compare two trees, run it on each in turn, a few
times, alternating which runs first. It reads no engine internals.
"""
from __future__ import annotations

import argparse
import json
import statistics
import time

STAGES = ("sdp", "cycle_table", "free_minima", "bs", "mp", "pricing")


def time_instance(config, hc, instance) -> dict:
    """Seconds of each stage of one instance."""
    from sspolicy.heuristics import bs_policy, cycle_table, mp_policy
    from sspolicy.sdp import solve_sdp
    from sspolicy.simulate import estimate_gaps
    from sspolicy.testbed import instance_seed

    out = {}
    clock = time.perf_counter
    start = clock()
    oracle = solve_sdp(instance)
    out["sdp"], start = clock() - start, clock()
    table = cycle_table(instance, hc)
    out["cycle_table"], start = clock() - start, clock()
    for k in range(1, instance.horizon + 1):
        table.engine(k).free_minimum()
    out["free_minima"], start = clock() - start, clock()
    bs = bs_policy(instance, hc, table=table)
    out["bs"], start = clock() - start, clock()
    mp = mp_policy(instance, hc, table=table)
    out["mp"], start = clock() - start, clock()
    estimate_gaps(instance, [bs, mp], oracle.expected_cost,
                  config.replications, instance_seed(config.seed, instance.name))
    out["pricing"] = clock() - start
    return out


def stage_times(config, instances, rounds: int) -> dict:
    """The JSON record of `rounds` rounds over `instances`."""
    hc = config.heuristic_config()
    per_round = {stage: [] for stage in STAGES}
    for r in range(rounds):
        totals = dict.fromkeys(STAGES, 0.0)
        for instance in instances if r % 2 == 0 else instances[::-1]:
            for stage, seconds in time_instance(config, hc, instance).items():
                totals[stage] += seconds
        for stage in STAGES:
            per_round[stage].append(1e3 * totals[stage] / len(instances))
    median = {stage: statistics.median(v) for stage, v in per_round.items()}
    period_reps = config.replications * config.horizon * 2
    return {
        "ms_per_instance": {s: round(v, 4) for s, v in median.items()},
        "rounds_ms": {s: [round(x, 4) for x in v] for s, v in per_round.items()},
        "total_ms": round(sum(median.values()), 4),
        "pricing_s_per_M_period_reps": round(
            1e3 * median["pricing"] / period_reps, 4),
    }


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--horizon", type=int, choices=(8, 25), required=True)
    p.add_argument("--every", type=int, default=1,
                   help="time every N-th grid instance (default 1: all)")
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.every < 1:
        p.error("--every must be >= 1")
    if args.rounds < 1:
        p.error("--rounds must be >= 1")
    from sspolicy.testbed import BenchmarkConfig, build_instances
    config = BenchmarkConfig(horizon=args.horizon)
    instances = build_instances(config)[::args.every]
    start = time.perf_counter()
    record = stage_times(config, instances, args.rounds)
    print(json.dumps({"horizon": args.horizon, "every": args.every,
                      "instances": len(instances), "rounds": args.rounds,
                      **record,
                      "seconds": round(time.perf_counter() - start, 3)}))


if __name__ == "__main__":
    main()
