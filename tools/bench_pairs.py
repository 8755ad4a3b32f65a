"""Paired benchmark runs of a base revision against a change.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --label simulate_blocks --base HEAD~1 \
        --workload oracle25:10 --workload gap8:5 --first-seed 601

The base revision is exported with `git archive` into a temporary
directory, so nothing is added to the repository's `.git` and an
interrupted run leaves nothing behind. The change is this checkout's
working tree. Both sides run the same, unchanged command, `python3
bench/run.py --workload W --seed N --seconds S --trace 0`, with S the
run_seconds of BENCHMARK.json, each from its own root, so each measures
its own package sources with its own copy of the benchmark.

For each workload, pair i uses seed first-seed + i on both sides, and the
side that runs first alternates from pair to pair. Each --trace-seed adds
one traced pair per workload (`--trace 1`), again alternating, for the
per-layer metrics; a traced run's self times are wall seconds, not scaled
to the machine's idle speed, so the file keeps each side's median too.
Traced runs are bounded by an instance count alone (`--max-instances N
--seconds 1e+09`), N being the fewest instances any untraced run of the
workload reached, so both sides trace the same instances even when one
side runs more blocks in the run length; a run finishes every block it
starts, so N is a whole number of blocks. The file records N.

Writes BENCH_<label>.json in the repository root: every run's end-to-end
metrics, block digests, unscaled loop wall seconds, speed-probe median and
raw rate (instances over those seconds), each side's median raw rate, per
metric each side's median and quartiles, the change's wins per pair (ties
count for neither side), whether the claim rule holds (wins in at least
nine tenths of the pairs, and medians further apart than the base's
interquartile distance), whether the change's median stays within the
bound BENCHMARK.json fixes, whether the block digests the two sides share
agree, the machine record of each side and the exact commands.
"""
from __future__ import annotations

import argparse
import datetime
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path


# run length of a traced run, which its instance count ends first; finite,
# so the run's report stays standard JSON
UNBOUNDED_S = 1e9


def workload_arg(item: str) -> tuple:
    """NAME[:PAIRS] as (name, pairs); PAIRS is an integer >= 1, default 10."""
    name, _, count = item.partition(":")
    try:
        pairs = int(count or 10)
    except ValueError:
        pairs = 0
    if pairs < 1:
        raise argparse.ArgumentTypeError(
            f"{item!r}: the pair count must be an integer >= 1")
    return name, pairs


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", required=True,
                   help="names the output file BENCH_<label>.json")
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workload", action="append", required=True,
                   type=workload_arg, metavar="NAME[:PAIRS]",
                   help="workload and its number of pairs (default 10)")
    p.add_argument("--first-seed", type=int, required=True)
    p.add_argument("--trace-seed", type=int, action="append", default=[],
                   help="seed of one traced pair per workload (repeatable)")
    return p.parse_args(argv)


def git(repo: Path, *args) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True,
                          capture_output=True).stdout


def export(repo: Path, rev: str, dest: Path) -> dict:
    """Files of `rev` under `dest`; returns the revision's record."""
    commit = git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", "--format=tar", commit))) as tar:
        tar.extractall(dest, filter="data")
    return {"rev": rev, "commit": commit}


def bench_command(workload: str, seed: int, seconds: float, trace: int,
                  max_instances: int = 0) -> list:
    command = ["python3", "bench/run.py", "--workload", workload, "--seed",
               str(seed), "--seconds", f"{seconds:g}", "--trace", str(trace)]
    if max_instances:
        command += ["--max-instances", str(max_instances)]
    return command


def run_bench(root: Path, command: list) -> dict:
    """The report and result lines of one bench/run.py run."""
    proc = subprocess.run(command, cwd=root, capture_output=True, text=True,
                          check=False)
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(command)} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"report": json.loads(lines[-2])["report"],
            "result": json.loads(lines[-1])}


def run_record(side: str, seed: int, out: dict) -> dict:
    """One untraced run: its end-to-end metrics, its block digests, and
    its raw rate, instances over the loop's unscaled wall seconds, beside
    the speed probe's median factor that scaled the metrics."""
    report = out["report"]
    settings = report["settings"]
    wall_s = settings["wall_s"]["untraced"]
    return {
        "side": side, "seed": seed,
        "correct": out["result"]["correct"],
        "attempted": out["result"]["attempted"],
        "failed": out["result"]["failed"],
        "metrics": {k: v["value"] for k, v in report["end_to_end"].items()},
        "instances_run": settings["instances_run"],
        "wall_s": wall_s,
        "speed_p50": settings["speed_p50"],
        "raw_instances_per_s": settings["instances_run"] / wall_s,
        "block_digests": report["block_digests"],
        "problems": report["checks"]["problems"],
    }


def raw_rates(pairs: list) -> dict:
    """Each side's median raw rate (instances per unscaled second)."""
    return {side: statistics.median(p[side]["raw_instances_per_s"]
                                    for p in pairs)
            for side in ("base", "change")}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, declared: list) -> dict:
    """Per declared end-to-end metric: medians, quartiles, wins, claim
    rule and bound check."""
    out = {}
    for spec in declared:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [p["base"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c > b) if higher else (c < b) for b, c in zip(base, change))
        losses = sum((c < b) if higher else (c > b) for b, c in zip(base, change))
        b_med, c_med = statistics.median(base), statistics.median(change)
        b_q1, b_q3 = quartiles(base)
        c_q1, c_q3 = quartiles(change)
        worse = (b_med - c_med) if higher else (c_med - b_med)
        out[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base": {"median": b_med, "q1": b_q1, "q3": b_q3, "runs": base},
            "change": {"median": c_med, "q1": c_q1, "q3": c_q3, "runs": change},
            "change_over_base": c_med / b_med if b_med else None,
            "change_wins": wins, "base_wins": losses, "pairs": len(pairs),
            "claim_rule_holds": (wins >= 0.9 * len(pairs)
                                 and -worse > b_q3 - b_q1),
            "bound": spec["bound"],
            "within_bound": worse <= spec["bound"] * abs(b_med),
        }
    return out


def trace_limit(pairs: list) -> int:
    """The fewest instances any untraced run of the pairs reached."""
    return min(p[side]["instances_run"] for p in pairs for side in ("base", "change"))


def traced_pairs(roots: dict, workload: str, max_instances: int, args) -> dict:
    """One traced run per side and --trace-seed over the same first
    `max_instances` instances, alternating which side goes first, with
    each side's median per-layer metrics."""
    runs = []
    for i, seed in enumerate(args.trace_seed):
        command = bench_command(workload, seed, UNBOUNDED_S, 1, max_instances)
        for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
            report = run_bench(roots[side], command)["report"]
            runs.append({
                "side": side, "seed": seed,
                "instances_run": report["settings"]["instances_run"],
                "per_layer": {k: v["value"] for k, v in report["per_layer"].items()},
                "accounting": report["accounting"],
                "missing_layers": report["missing_layers"]})
    median = {}
    for side in ("base", "change"):
        layers = [r["per_layer"] for r in runs if r["side"] == side]
        median[side] = {
            k: statistics.median(v[k] for v in layers)
            for k in layers[0] if all(v[k] is not None for v in layers)}
    return {"command": bench_command(workload, "<seed>", UNBOUNDED_S, 1, max_instances),
            "seeds": args.trace_seed, "max_instances": max_instances,
            "runs": runs, "median": median}


def digests_agree(pairs: list) -> bool:
    """Both sides of every pair agree on every block they both ran."""
    for p in pairs:
        a, b = p["base"]["block_digests"], p["change"]["block_digests"]
        n = min(len(a), len(b))
        if n == 0 or a[:n] != b[:n]:
            return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    with open(repo / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {"base": Path(tmp) / "base", "change": repo}
        revisions = {
            "base": export(repo, args.base, roots["base"]),
            "change": {
                "rev": "working tree",
                "commit": git(repo, "rev-parse", "HEAD").decode().strip(),
                "uncommitted_changes": bool(git(repo, "status", "--porcelain").strip())}}

        doc = {"label": args.label,
               "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
               "revisions": revisions,
               "commands": {"tool": ["python3", "tools/bench_pairs.py",
                                     *(argv if argv is not None else sys.argv[1:])]},
               "machine": {}, "workloads": {}}
        for name, count in args.workload:
            pairs = []
            for i in range(count):
                seed = args.first_seed + i
                command = bench_command(name, seed, seconds, 0)
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    out = run_bench(roots[side], command)
                    pair[side] = run_record(side, seed, out)
                    doc["machine"].setdefault(side, out["report"]["machine"])
                    print(f"{name} seed {seed} {side}: instances_per_s "
                          f"{pair[side]['metrics']['instances_per_s']:.3f}",
                          file=sys.stderr, flush=True)
                pairs.append(pair)
            entry = {"command": bench_command(name, "<seed>", seconds, 0),
                     "seeds": [p["seed"] for p in pairs],
                     "pairs": pairs,
                     "summary": summarize(pairs, declared),
                     "raw_instances_per_s": raw_rates(pairs),
                     "all_correct": all(p[s]["correct"] for p in pairs
                                        for s in ("base", "change")),
                     "block_digests_agree": digests_agree(pairs)}
            if args.trace_seed:
                entry["traced"] = traced_pairs(roots, name, trace_limit(pairs), args)
            doc["workloads"][name] = entry

    path = repo / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for name, entry in doc["workloads"].items():
        for metric, s in entry["summary"].items():
            print(f"{name} {metric}: base {s['base']['median']:.4g} "
                  f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}] -> change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                  f"{s['change']['q3']:.4g}], wins {s['change_wins']}/"
                  f"{s['pairs']}, within bound {s['within_bound']}")
        raw = entry["raw_instances_per_s"]
        print(f"{name} raw instances/s: base {raw['base']:.4g} -> change "
              f"{raw['change']:.4g}")
        print(f"{name} digests agree: {entry['block_digests_agree']}, "
              f"all correct: {entry['all_correct']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
