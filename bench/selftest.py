"""Self-test of the benchmark at tiny size.

    python3 bench/selftest.py

Runs every workload on a few instances: twice without tracing and once
with. Checks that the result line holds exactly the metrics BENCHMARK.json
declares for the mode, each a finite number with the declared unit; that
the report states every end-to-end metric with its unit, as a number or
marked not applicable; that the output checks pass; and that all three
runs give one digest. On oracle25 the solver and heuristics call counts
must read 0. Exits 1 on the first workload with a failure.
"""
from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TINY = {"gap8": 3, "long12": 1, "oracle25": 2}   # instances per run
SEED = 7
REPORTED = (
    "setup_s", "instances_per_s", "instance_p50_s", "instance_tail_s",
    "policy_bs_p50_s", "policy_bs_tail_s", "policy_mp_p50_s",
    "policy_mp_tail_s", "gap_bs_mean_pct", "gap_mp_mean_pct",
    "oracle_sim_dev_pct", "failed_frac", "peak_rss_mb",
)
ZERO_ON_ORACLE25 = (
    "solver.free_minimum.calls", "solver.cost_at.calls",
    "solver.solve_exact.calls", "heuristics.bs_policy.calls",
    "heuristics.mp_policy.calls",
)


def run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0",
         "--max-instances", str(TINY[workload]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def problems_of(workload: str, runs, declared) -> list:
    out = []
    for (report, result), trace in zip(runs, (0, 0, 1)):
        kind = "per_layer" if trace else "end_to_end"
        where = f"{workload} trace={trace}"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            out.append(f"{where}: result keys {sorted(result)}")
        if result.get("correct") is not True:
            out.append(f"{where}: checks failed: {report['checks']}")
        if result.get("attempted", 0) < 1 or result.get("failed") != 0:
            out.append(f"{where}: attempted/failed "
                       f"{result.get('attempted')}/{result.get('failed')}")
        printed = result.get("metrics", {})
        if set(printed) != {m["name"] for m in declared[kind]}:
            out.append(f"{where}: metrics {sorted(printed)} are not the "
                       f"declared {kind} set")
        for m in declared[kind]:
            got = printed.get(m["name"], {})
            value = got.get("value")
            if got.get("unit") != m["unit"] or not isinstance(
                    value, (int, float)) or not math.isfinite(value):
                out.append(f"{where}: {m['name']} printed as {got}")
        for name in REPORTED:
            entry = report["end_to_end"].get(name)
            if (entry is None or not entry.get("unit")
                    or (entry.get("value") is None and not entry.get("na"))):
                out.append(f"{where}: report lacks {name}: {entry}")
        if report["missing_layers"]:
            out.append(f"{where}: missing layers {report['missing_layers']}")
    digests = {report["digest"] for report, _ in runs}
    if len(digests) != 1:
        out.append(f"{workload}: digests differ across runs: {digests}")
    if workload == "oracle25":
        layers = runs[2][0]["per_layer"]
        for name in ZERO_ON_ORACLE25:
            if layers[name]["value"] != 0:
                out.append(f"oracle25: {name} = {layers[name]['value']}")
    return out


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    for workload in TINY:
        runs = [run(workload, 0), run(workload, 0), run(workload, 1)]
        problems = problems_of(workload, runs, declared)
        if problems:
            print("\n".join(f"FAIL {p}" for p in problems))
            return 1
        print(f"ok {workload}: digest {runs[0][0]['digest'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
