"""One sha256 over the bs and mp policies of a benchmark grid, one over
its SDP oracle solutions and one over its segment data.

    PYTHONPATH=src python3 tools/policy_digest.py --horizon 8
    PYTHONPATH=/path/to/other/src python3 tools/policy_digest.py \
        --horizon 25 --every 10 --unit-cost 1.5

For every `--every`-th instance of the grid (BenchmarkConfig(horizon,
unit_cost) with its default heuristic config) it builds one cycle table,
runs bs_policy and then mp_policy on it (`table=`), and hashes each
policy's reorder points, order-up-to levels and linked costs in float hex,
then the table's work() counters. It also solves each instance's SDP oracle
and hashes its policy and expected cost in float hex, its demand atom
counts and the sha256 of its G and C tables' bytes, and hashes the bytes
of every row array of each instance's segments (build_segments at the
heuristic config's partition). It prints one JSON line: the three digests
(`sha256`, `oracle_sha256`, `segment_sha256`), the instance count and the
wall seconds.

`sspolicy` is imported from PYTHONPATH, so the same script digests any
checkout's sources; two trees whose policies are equal bit for bit give
the same digest.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import time


def policy_lines(instance, config, table) -> list:
    """The hashed text of one instance: its name, its bs and mp policies
    in float hex, and the shared table's work() after both."""
    from sspolicy.heuristics import bs_policy, mp_policy
    lines = [instance.name]
    for method in (bs_policy, mp_policy):
        policy = method(instance, config, table=table)
        for values in (policy.reorder_points, policy.order_up_to_levels,
                       policy.costs):
            lines.append(" ".join(float(v).hex() for v in values))
    lines.append(" ".join(map(str, table.work())))
    return lines


def digest(instances, config) -> str:
    """sha256 of policy_lines over `instances`, one table each."""
    from sspolicy.heuristics import cycle_table
    sha = hashlib.sha256()
    for instance in instances:
        text = policy_lines(instance, config, cycle_table(instance, config))
        sha.update(("\n".join(text) + "\n").encode())
    return sha.hexdigest()


def oracle_lines(instance) -> list:
    """The hashed text of one instance's SDP solution: its name, policy
    and expected cost in float hex, demand atom counts, and the sha256 of
    its G and C tables' bytes."""
    from sspolicy.sdp import solve_sdp
    solution = solve_sdp(instance)
    policy = solution.policy
    lines = [instance.name]
    for values in (policy.reorder_points, policy.order_up_to_levels,
                   policy.costs, (solution.expected_cost,)):
        lines.append(" ".join(float(v).hex() for v in values))
    lines.append(" ".join(map(str, solution.demand_atoms)))
    for table in (solution.g_tables, solution.c_tables):
        lines.append(hashlib.sha256(table.tobytes()).hexdigest())
    return lines


def oracle_digest(instances) -> str:
    """sha256 of oracle_lines over `instances`."""
    sha = hashlib.sha256()
    for instance in instances:
        sha.update(("\n".join(oracle_lines(instance)) + "\n").encode())
    return sha.hexdigest()


def segment_digest(instances, config) -> str:
    """sha256 over `instances` of each one's name and the bytes of its
    segments' breakpoints, means, error bounds, slopes, lines and cuts."""
    from sspolicy.model import build_segments
    sha = hashlib.sha256()
    for instance in instances:
        segments = build_segments(instance, segments=config.cells,
                                  strategy=config.strategy)
        sha.update(instance.name.encode() + b"\n")
        for rows in (segments.breakpoints, segments.means, segments.errors,
                     segments.slopes, segments.lines, segments.cuts):
            sha.update(rows.tobytes())
    return sha.hexdigest()


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--horizon", type=int, choices=(8, 25), required=True)
    p.add_argument("--every", type=int, default=1,
                   help="digest every N-th grid instance (default 1: all)")
    p.add_argument("--unit-cost", type=float, default=0.0)
    args = p.parse_args(argv)
    if args.every < 1:
        p.error("--every must be >= 1")
    from sspolicy.testbed import BenchmarkConfig, build_instances
    grid = BenchmarkConfig(horizon=args.horizon, unit_cost=args.unit_cost)
    instances = build_instances(grid)[::args.every]
    start = time.perf_counter()
    config = grid.heuristic_config()
    sha = digest(instances, config)
    print(json.dumps({"horizon": args.horizon, "every": args.every,
                      "unit_cost": args.unit_cost, "instances": len(instances),
                      "sha256": sha,
                      "oracle_sha256": oracle_digest(instances),
                      "segment_sha256": segment_digest(instances, config),
                      "seconds": round(time.perf_counter() - start, 3)}))


if __name__ == "__main__":
    main()
