"""Benchmark of the sspolicy pipeline, end to end and layer by layer.

Run from the repository root:

    python3 bench/run.py --workload gap8 --seed 1 --seconds 6 --trace 0

Workloads (see bench/README.md): gap8, long12, oracle25. One process
drives the instances serially through the package's public API, block by
block, until --seconds of work at the machine's idle speed are done, and
finishes the block it started. Times are scaled to that idle speed by a
speed probe that runs around and during every instance.

Output: one JSON line {"report": ...} with every metric (n/a where the
workload lacks the quantity), the output checks, the result digest and the
machine record; then, as the last line, the result object
{"correct", "attempted", "failed", "metrics"}. Its metrics are the ones
BENCHMARK.json declares: the end-to-end ones with --trace 0, the per-layer
ones with --trace 1. A traced run runs every block twice, once traced and
once not, so it can state the tracing overhead and compare digests.

Exits 2 without a result when the package sources are not there.
"""
from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before numpy loads: solve_sdp's matrix products would otherwise
# spread over threads that contend for the machine's few shared cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# workloads.WORKLOADS imports numpy, which must load after the BLAS pin
WORKLOADS = ("gap8", "long12", "oracle25")
SETUP_FRESH = 2           # fresh-interpreter set-ups besides this process's
EXAMPLE_POLICY = (14.0, 70.0)  # SDP (s_1, S_1) of the bundled worked example
# SpeedProbe.sample() seconds on an idle 2-core Intel Xeon (Python 3.11,
# numpy 2.4), and how often it samples while an instance runs
REFERENCE_PROBE_S = 0.010
SAMPLE_EVERY_S = 0.5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-instances", type=int, default=0,
                   help="stop after this many instances (0: no limit)")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


@dataclasses.dataclass
class Setup:
    workload: object
    config: object
    instances: dict
    parts: dict
    example: object
    example_pair: tuple
    seconds: float


def setup(name: str, seed: int) -> Setup:
    """What every CLI call pays before its work: imports, the minimax
    partition, the instances and the worked-example check."""
    sys.path.insert(0, str(SRC))
    import importlib
    from sspolicy import data, domain, sdp
    import workloads

    loss = importlib.import_module("sspolicy.loss")  # the package exports a loss()

    workload = workloads.WORKLOADS[name]
    config = workloads.config_for(workload, seed)
    hcfg = config.heuristic_config()
    t = time.perf_counter()
    loss.cached_partition(hcfg.cells, hcfg.strategy)  # as the heuristics call it
    partition_s = time.perf_counter() - t
    t = time.perf_counter()
    instances = workloads.build_instances(workload, config)
    build_s = time.perf_counter() - t
    example = domain.read_instance(data.bundled("example4.json"))
    pair = tuple(float(v) for v in sdp.solve_sdp(example).policy.pair(1))
    return Setup(workload, config, instances,
                 {"partition_s": partition_s, "build_instances_s": build_s},
                 example, pair, time.perf_counter() - START)


def fresh_setup_seconds(args) -> float:
    """Set-up seconds of a fresh interpreter running this script."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def block_digest(outcomes) -> str:
    import workloads
    records = sorted(workloads.digest_record(o) for o in outcomes)
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class SpeedProbe:
    """Samples how fast the machine runs while the benchmark works.

    A sample times a fixed 10 ms mix of interpreter work and small- and
    large-array numpy. One is taken before and after every instance, and a
    timer signal takes one every SAMPLE_EVERY_S seconds while it runs. An
    instance's speed is REFERENCE_PROBE_S over the mean of these samples,
    and its time times that speed is its time at the machine's idle speed.
    This takes out most of the slowdown that other tenants of a shared
    machine cause, and keeps the package's own speed: a slower package
    makes the instance slower, not the samples.
    """

    def __init__(self):
        import numpy as np
        self.np = np
        self.big = np.linspace(-1.0, 1.0, 1 << 20)
        self.out = np.empty_like(self.big)
        self.samples = []

    def sample(self, *_signal) -> float:
        np = self.np
        start = time.perf_counter()
        small = np.arange(16.0)
        for _ in range(1000):
            small = np.maximum(small - 0.5, 0.0) + 0.25
        for _ in range(4):
            np.maximum(self.big - small[0], 0.0, out=self.out)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def around(self, fn, *args):
        """(fn(*args), the machine's speed while it ran)."""
        first = len(self.samples)
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()
        return result, REFERENCE_PROBE_S / statistics.fmean(self.samples[first:])


def measure(s: Setup, args, tracer, capture) -> dict:
    """Blocks until --seconds of work at the machine's idle speed are done.

    Counting idle-speed seconds rather than wall seconds keeps the set of
    instances a run takes independent of how busy the machine is. With
    --trace 1 every block runs twice, untraced and traced, which gives the
    tracing overhead on identical work.
    """
    import workloads

    wl, config = s.workload, s.config

    def run_one(instance):
        if wl.methods:
            return workloads.run_heuristics(config, instance, capture)
        return workloads.run_oracle(config, instance)

    # first calls finish lazy set-up inside the package before any timing
    run_one(s.example)
    probe = SpeedProbe()
    passes = ("untraced", "traced") if args.trace else ("untraced",)
    outcomes = {p: [] for p in passes}
    wall = {p: 0.0 for p in passes}
    digests = {p: [] for p in passes}
    done_s = 0.0
    for b, block in enumerate(workloads.schedule(wl, config, args.seed)):
        if args.max_instances:
            block = block[:args.max_instances - len(outcomes["untraced"])]
        # alternate which pass goes first so neither gains from order
        for label in passes if b % 2 == 0 else passes[::-1]:
            tracer.enabled = label == "traced"
            outs = []
            t0 = time.perf_counter()
            for name in block:
                tracer.request = name
                out, out_speed = probe.around(run_one, s.instances[name])
                out.speed = out_speed
                outs.append(out)
            wall[label] += time.perf_counter() - t0
            if tracer.enabled:
                tracer.enabled = False
                for o in outs:
                    if o.oracle is not None:
                        levels, cells = workloads.sdp_work(o.oracle)
                        tracer.counts["sdp.solutions"] += 1
                        tracer.counts["sdp.grid_levels"] += levels
                        tracer.counts["sdp.level_atom_cells"] += cells
            else:
                done_s += sum(o.wall_s * o.speed for o in outs)
            outcomes[label].extend(outs)
            digests[label].append(block_digest(outs))
        if done_s >= args.seconds:
            break
        if args.max_instances and len(outcomes["untraced"]) >= args.max_instances:
            break
    return {"outcomes": outcomes, "wall": wall, "digests": digests}


def at_reference_speed(o):
    """Outcome `o` with its times scaled to the reference machine speed."""
    return dataclasses.replace(
        o, wall_s=o.wall_s * o.speed,
        policy_s={k: v * o.speed for k, v in o.policy_s.items()})


def tail(values):
    """(value, percentile label, samples) of the highest percentile with
    at least ten samples beyond it, or None with fewer than 11 samples."""
    v = sorted(values)
    n = len(v)
    if n < 11:
        return None
    return v[n - 11], f"p{100.0 * (n - 10) / n:.0f}", n


def end_to_end(wl, outcomes, wall_s, setup_samples) -> dict:
    """Every end-to-end metric: name -> {"value", "unit", ...}."""
    done = [o for o in outcomes if o.completed]
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    out = {}

    def put(name, value, unit, **extra):
        out[name] = {"value": value, "unit": unit, **extra}

    def na(name, unit, why):
        put(name, None, unit, na=why)

    def timing(name, values):
        if not values:
            na(f"{name}_p50_s", "s", "no samples")
            na(f"{name}_tail_s", "s", "no samples")
            return
        put(f"{name}_p50_s", statistics.median(values), "s",
            samples=len(values))
        t = tail(values)
        if t is None:
            na(f"{name}_tail_s", "s",
               f"{len(values)} samples; a tail needs 11 or more")
        else:
            put(f"{name}_tail_s", t[0], "s", percentile=t[1], samples=t[2])

    put("setup_s", statistics.median(setup_samples), "s",
        samples=len(setup_samples))
    put("instances_per_s", len(done) / wall_s if wall_s else 0.0, "1/s",
        instances=len(done))
    timing("instance", [o.wall_s for o in done])
    for method in ("bs", "mp"):
        if method in wl.methods:
            timing(f"policy_{method}",
                   [o.policy_s[method] for o in done if method in o.policy_s])
            gaps = [o.gaps[method] for o in done if method in o.gaps]
            put(f"gap_{method}_mean_pct", statistics.fmean(gaps)
                if gaps else None, "%", instances=len(gaps))
        else:
            why = f"{wl.name} runs no {method} heuristic"
            na(f"policy_{method}_p50_s", "s", why)
            na(f"policy_{method}_tail_s", "s", why)
            na(f"gap_{method}_mean_pct", "%", why)
    if wl.methods:
        na("oracle_sim_dev_pct", "%",
           f"{wl.name} prices heuristic policies, not the oracle's own")
    else:
        devs = [100.0 * abs(o.sim_means["sdp"] - o.oracle_cost) / o.oracle_cost
                for o in done]
        put("oracle_sim_dev_pct", statistics.fmean(devs) if devs else None,
            "%", instances=len(devs))
    put("failed_frac", failed / attempted if attempted else 0.0, "ratio",
        attempted=attempted, failed=failed)
    put("peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads() -> dict:
    """Threads each loaded OpenBLAS reports, read through its own API."""
    out = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {ln.split()[-1] for ln in fh
                     if "openblas" in ln and ln.split()[-1].startswith("/")}
    except OSError:
        return out
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def _blas_build(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):  # layout varies by release
        return "unknown"


def _git_commit() -> str:
    """HEAD's commit read from .git, without searching parent directories."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "sspolicy").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas_build(numpy),
        "scipy_blas": _blas_build(scipy),
        "blas_threads": _blas_threads(),
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def declared_metrics(kind: str) -> list:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[kind]]


def write_spans(tracer, path: Path) -> None:
    names = sorted({sp[0] for sp in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    t0 = min((sp[2] for sp in tracer.spans), default=0.0)
    rows = [[index[n], parent, round(s - t0, 7), round(e - t0, 7), req]
            for n, parent, s, e, req in tracer.spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"names": names, "columns": [
        "name", "parent", "start_s", "end_s", "instance"], "spans": rows}))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sspolicy" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    s = setup(args.workload, args.seed)
    probe = SpeedProbe()
    setup_s = s.seconds * REFERENCE_PROBE_S / statistics.median(
        probe.sample() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    setup_samples = [setup_s] + [fresh_setup_seconds(args)
                                 for _ in range(SETUP_FRESH)]

    import tracing
    import workloads
    tracer = tracing.Tracer()
    capture = workloads.Capture()
    tracing.install(tracer, capture, layers=bool(args.trace))
    try:
        m = measure(s, args, tracer, capture)
    finally:
        tracer.restore()

    untraced = m["outcomes"]["untraced"]
    problems = []
    if s.example_pair != EXAMPLE_POLICY:
        problems.append(f"example4 SDP (s1, S1) = {s.example_pair}, "
                        f"expected {EXAMPLE_POLICY}")
    for outs in m["outcomes"].values():
        for o in outs:
            problems.extend(workloads.check(o))
    block_digests = m["digests"]["untraced"]
    if args.trace and m["digests"]["traced"] != block_digests:
        problems.append("traced digests differ from untraced ones")
    errors = [e for o in untraced for e in o.errors]

    timed = [at_reference_speed(o) for o in untraced]
    e2e = end_to_end(s.workload, timed, sum(o.wall_s for o in timed),
                     setup_samples)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "why": s.workload.why,
        "settings": {
            "seconds": args.seconds, "horizon": s.workload.horizon,
            "patterns": list(s.workload.patterns),
            "methods": list(s.workload.methods),
            "replications": s.workload.replications,
            "segments": s.config.segments, "strategy": s.config.strategy,
            "grid_instances": len(s.instances),
            "instances_run": len(untraced),
            "blocks_run": len(block_digests),
            "speed_p50": statistics.median(o.speed for o in untraced),
            "wall_s": m["wall"],
            "setup_samples_s": setup_samples,
        },
        "instance_s": {o.name: o.wall_s for o in timed},
        "digest": hashlib.sha256("".join(block_digests).encode()).hexdigest(),
        "block_digests": [d[:16] for d in block_digests],
        "end_to_end": e2e,
        "machine": machine_record(),
        "missing_layers": tracer.missing,
    }
    if args.trace:
        traced_wall = m["wall"]["traced"]
        loop_s = traced_wall - tracer.top_level_seconds()
        scaled = {label: sum(o.wall_s * o.speed for o in outs)
                  for label, outs in m["outcomes"].items()}
        overhead = 100.0 * (scaled["traced"] / scaled["untraced"] - 1.0)
        layers = tracing.layer_metrics(
            tracer, len(m["outcomes"]["traced"]), loop_s, s.parts, overhead)
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in layers.items()}
        self_s = tracer.layer_self_seconds()
        report["accounting"] = {
            "traced_wall_s": traced_wall, "layer_self_s": self_s,
            "bench_loop_s": loop_s, "sum_s": sum(self_s.values()) + loop_s}
        spans_path = (ROOT / ".bench_build"
                      / f"spans-{args.workload}-{args.seed}.json")
        write_spans(tracer, spans_path)
        report["spans_file"] = str(spans_path.relative_to(ROOT))
        table, kind = report["per_layer"], "per_layer"
    else:
        table, kind = e2e, "end_to_end"

    metrics = {}
    for name in declared_metrics(kind):
        entry = table.get(name)
        if entry is None or entry["value"] is None:
            problems.append(f"declared metric {name} has no value")
            continue
        metrics[name] = {"value": entry["value"], "unit": entry["unit"]}
    report["checks"] = {"passed": not problems, "problems": problems[:20],
                        "errors": errors[:20]}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.attempted for o in untraced),
        "failed": sum(o.failed for o in untraced),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
