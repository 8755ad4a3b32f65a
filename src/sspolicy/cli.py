"""Command-line entry point.

Subcommands:
  sdp        exact dynamic-programming solve: policy table, expected cost,
             optional cost-to-go curve dump
  solve      heuristic policies (joint-model or binary-search), or LP-file
             export for external solvers
  simulate   Monte Carlo pricing of a policy CSV (seed required)
  benchmark  gap study from a JSON config; resumable, parallel

Exit codes: 0 success, 2 usage, 3 data error, 4 solver failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .domain import ValidationError, read_instance
from .export import export_lp
from .heuristics import (STRATEGIES, HeuristicConfig, bs_policy, cycle_table,
                         mp_policy, read_policy_csv, write_policy_csv)
from .model import build_joint, build_minlp_s
from .sdp import GridTooSmallError, default_grid, solve_sdp, write_g_curve
from .simulate import simulate_policy
from .solver import SolverError
from .testbed import BenchmarkConfig, mean_gap, run_benchmark, write_summary_csv

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_SOLVER = 4

# benchmark config keys that differ from their BenchmarkConfig field
_GRID_KEYS = {"K": "fixed_costs", "b": "penalty_costs", "cv": "cvs"}


def _print_policy(policy, costs_label="linked_cost"):
    print(f"{'t':>3} {'s_t':>12} {'S_t':>12} {costs_label:>14}")
    for t in range(1, policy.horizon + 1):
        s, big_s = policy.pair(t)
        cost = policy.costs[t - 1] if policy.costs else math.nan
        print(f"{t:>3} {s:>12.4f} {big_s:>12.4f} {cost:>14.4f}")


def _cmd_sdp(args) -> int:
    instance = read_instance(args.instance)
    solution = solve_sdp(instance, grid=default_grid(instance, step=args.grid_step),
                         demand_truncation=args.truncation)
    levels = solution.grid.size
    print(f"# instance {args.instance} horizon {instance.horizon} "
          f"grid step {solution.grid.step} levels {levels} "
          f"level-atom cells {levels * sum(solution.demand_atoms)}")
    _print_policy(solution.policy, costs_label="reorder_cost")
    print(f"expected cost from I0={instance.initial_inventory:g}: "
          f"{solution.expected_cost:.4f}")
    if args.dump_g:
        write_g_curve(solution, args.dump_g)
        print(f"cost-to-go curves written to {args.dump_g}")
    if args.out:
        write_policy_csv(solution.policy, args.out)
        print(f"policy written to {args.out}")
    return EXIT_OK


def _cmd_solve(args) -> int:
    instance = read_instance(args.instance)
    config = HeuristicConfig(segments=args.segments, strategy=args.strategy,
                             bs_step_size=args.step)
    if args.backend == "lp-export":
        if not args.out_dir:
            print("--backend lp-export requires --out-dir", file=sys.stderr)
            return EXIT_USAGE
        import os
        os.makedirs(args.out_dir, exist_ok=True)
        build = build_joint if args.method == "mp" else build_minlp_s
        table = cycle_table(instance, config)
        for k in range(1, instance.horizon + 1):
            view = table.suffix(k)
            model = build(view.instance, view)
            path = f"{args.out_dir}/suffix_{k:02d}_{model.kind}.lp"
            export_lp(model, path)
            print(f"wrote {path}")
        print("lp-export mode: no solving performed")
        return EXIT_OK
    policy = mp_policy(instance, config) if args.method == "mp" \
        else bs_policy(instance, config)
    _print_policy(policy)
    if policy.flagged_periods:
        print("# reorder point not bracketed from below (search lower bound "
              f"too high) in periods {policy.flagged_periods}")
    if args.out:
        write_policy_csv(policy, args.out)
        print(f"policy written to {args.out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    instance = read_instance(args.instance)
    policy = read_policy_csv(args.policy)
    result = simulate_policy(instance, policy, replications=args.reps,
                             seed=args.seed)
    print("mean,stderr,replications,seed,truncation_frequency")
    print(f"{result.mean:.6f},{result.standard_error:.6f},"
          f"{result.replications},{result.seed},"
          f"{result.truncation_frequency:.3e}")
    if result.se_degenerate:
        print("# single replication: standard error reported as 0",
              file=sys.stderr)
    return EXIT_OK


def _cmd_benchmark(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if "seed" not in doc:
        raise ValidationError(f"{args.config}: benchmark config requires a seed")
    for key in ("patterns", "K", "b", "cv"):
        if getattr(args, key):
            doc[key] = getattr(args, key)
    fields = {f.name for f in dataclasses.fields(BenchmarkConfig)}
    known = (fields - set(_GRID_KEYS.values())) | set(_GRID_KEYS)
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValidationError(f"{args.config}: unknown benchmark config "
                              f"key(s) {', '.join(map(repr, unknown))}")
    config = BenchmarkConfig(**{
        _GRID_KEYS.get(key, key): tuple(value) if isinstance(value, list) else value
        for key, value in doc.items()})
    if not config.methods:
        raise ValidationError(f"{args.config}: empty methods list")
    import os
    os.makedirs(args.out_dir, exist_ok=True)
    detail_path = os.path.join(args.out_dir, "detail.csv")
    report = run_benchmark(config, jobs=args.jobs, detail_path=detail_path)
    summary_path = os.path.join(args.out_dir, "summary.csv")
    write_summary_csv(report, summary_path)
    n_fail = sum(1 for r in report.results if r.status != "ok")
    print(f"{len(report.results)} rows ({n_fail} failures); "
          f"detail: {detail_path}; summary: {summary_path}")
    for method in config.methods:
        gaps = report.ok_gaps(method)
        if gaps:
            print(f"{method}: mean gap {mean_gap(gaps):.3f}% "
                  f"over {len(gaps)} instances")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sspolicy",
        description="Non-stationary (s,S) inventory policy toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sdp = sub.add_parser("sdp", help="exact dynamic-programming benchmark")
    p_sdp.add_argument("instance")
    p_sdp.add_argument("--grid-step", type=float, default=1.0)
    p_sdp.add_argument("--truncation", type=float, default=0.9999)
    p_sdp.add_argument("--dump-g", metavar="CSV")
    p_sdp.add_argument("--out", metavar="CSV", help="write the policy as CSV")
    p_sdp.set_defaults(func=_cmd_sdp)

    p_solve = sub.add_parser("solve", help="heuristic policy computation")
    p_solve.add_argument("instance")
    p_solve.add_argument("--method", choices=("mp", "bs"), required=True)
    p_solve.add_argument("--segments", type=int, default=11)
    p_solve.add_argument("--strategy", default="equal-probability",
                         choices=STRATEGIES)
    p_solve.add_argument("--step", type=float, default=None,
                         help="binary-search step size")
    p_solve.add_argument("--backend", choices=("exact", "lp-export"),
                         default="exact")
    p_solve.add_argument("--out", metavar="CSV")
    p_solve.add_argument("--out-dir", help="target directory for lp-export")
    p_solve.set_defaults(func=_cmd_solve)

    p_sim = sub.add_parser("simulate", help="Monte Carlo policy pricing")
    p_sim.add_argument("instance")
    p_sim.add_argument("--policy", required=True, metavar="CSV")
    p_sim.add_argument("--reps", type=int, default=10000)
    p_sim.add_argument("--seed", type=int, required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="gap study from a JSON config")
    p_bench.add_argument("config")
    p_bench.add_argument("--out-dir", default="benchmark-out")
    p_bench.add_argument("--jobs", type=int, default=1)
    p_bench.add_argument("--patterns", nargs="+", metavar="NAME",
                         help="restrict the config's pattern list")
    p_bench.add_argument("--K", nargs="+", type=float,
                         help="restrict the fixed-ordering-cost grid")
    p_bench.add_argument("--b", nargs="+", type=float,
                         help="restrict the penalty-cost grid")
    p_bench.add_argument("--cv", nargs="+", type=float,
                         help="restrict the coefficient-of-variation grid")
    p_bench.set_defaults(func=_cmd_benchmark)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (SolverError, GridTooSmallError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
