"""Benchmark test beds: demand patterns, instance grids, gap study.

Ten demand patterns over 8- or 25-period horizons: two life cycles, two
sinusoids, a stationary level, one fixed random draw and four empirical
series. The 8-period values and the random/empirical 25-period values are
shipped as data; the remaining 25-period series are regenerated from their
closed forms and checked entry-for-entry against the shipped table.

The gap study crosses pattern x K x b x cv (10 x 3 x 3 x 3 = 270
instances per horizon), solves each with the requested heuristics, prices
the resulting policies by simulation and reports optimality gaps against
the dynamic-programming benchmark, grouped the way the published summary
tables group them. Per instance, the heuristics share one cycle table and
their policies are priced on one set of demand blocks; each row is what
its method alone would give.

The source grids leave the holding and unit costs unstated; h = 1 and
c = 0 are fixed here (matching the worked example) and recorded in every
report header.
"""
from __future__ import annotations

import csv
import math
import os
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from numbers import Integral

from .domain import (CostParameters, Instance, NormalDemand, ValidationError,
                     round_half_up, running_sums)
from .heuristics import HeuristicConfig, bs_policy, cycle_table, mp_policy
from .sdp import solve_sdp
from .simulate import estimate_gaps

PATTERNS = ("LCY1", "LCY2", "SIN1", "SIN2", "STA", "RAND",
            "EMP1", "EMP2", "EMP3", "EMP4")

_DEMAND_8 = {
    "LCY1": (15, 16, 15, 14, 11, 7, 6, 3),
    "LCY2": (3, 6, 7, 11, 14, 15, 16, 15),
    "SIN1": (15, 4, 4, 10, 18, 4, 4, 10),
    "SIN2": (12, 7, 7, 10, 13, 7, 7, 12),
    "STA": (10, 10, 10, 10, 10, 10, 10, 10),
    "RAND": (2, 4, 7, 3, 10, 10, 3, 3),
    "EMP1": (5, 15, 26, 44, 24, 15, 22, 10),
    "EMP2": (4, 23, 28, 50, 39, 26, 19, 32),
    "EMP3": (11, 14, 7, 11, 16, 31, 11, 48),
    "EMP4": (18, 6, 22, 22, 51, 54, 22, 21),
}

# 25-period shipped data: the random draw is a fixed realization, the
# empirical series come from an external dataset; both are data, not code.
_DEMAND_25_DATA = {
    "RAND": (178, 178, 136, 211, 119, 165, 47, 100, 62, 31, 43, 199, 172,
             96, 69, 8, 29, 135, 97, 70, 248, 57, 11, 94, 13),
    "EMP1": (2, 51, 152, 467, 268, 489, 446, 248, 281, 363, 155, 293, 220,
             93, 107, 234, 124, 184, 223, 101, 123, 99, 31, 82, 0),
    "EMP2": (47, 81, 236, 394, 164, 287, 508, 391, 754, 694, 261, 195, 320,
             111, 191, 160, 55, 84, 58, 0, 0, 0, 0, 0, 0),
    "EMP3": (44, 116, 264, 144, 146, 198, 74, 183, 204, 114, 165, 318, 119,
             482, 534, 136, 260, 299, 76, 218, 323, 102, 174, 284, 0),
    "EMP4": (49, 188, 64, 279, 453, 224, 223, 517, 291, 547, 646, 224, 215,
             440, 116, 185, 211, 26, 55, 0, 0, 0, 0, 0, 0),
}

# shipped copy of the generated series, used by the regeneration check
_DEMAND_25_GENERATED = {
    "LCY1": (11, 17, 26, 38, 53, 71, 92, 115, 138, 159, 175, 186, 190, 186,
             175, 159, 138, 115, 92, 71, 53, 38, 26, 17, 11),
    "LCY2": (23, 32, 42, 55, 70, 86, 103, 120, 136, 150, 161, 168, 170, 168,
             161, 150, 136, 120, 103, 86, 70, 55, 42, 32, 23),
    "SIN1": (130, 150, 127, 76, 27, 10, 36, 88, 136, 149, 121, 68, 22, 11,
             42, 96, 140, 148, 114, 60, 18, 14, 50, 104, 144),
    "SIN2": (122, 130, 120, 98, 77, 70, 81, 103, 124, 130, 118, 95, 75, 71,
             84, 107, 126, 129, 115, 91, 73, 72, 87, 110, 127),
    "STA": (100,) * 25,
}


def generate_25(pattern: str) -> tuple[int, ...]:
    """Closed-form 25-period series (the Gaussian bumps read with the
    divisor inside the exponent, which is what the shipped table encodes)."""
    if pattern == "LCY1":
        return tuple(round_half_up(190 * math.exp(-(t - 13) ** 2 / (2 * 5 ** 2)))
                     for t in range(1, 26))
    if pattern == "LCY2":
        return tuple(round_half_up(170 * math.exp(-(t - 13) ** 2 / (2 * 6 ** 2)))
                     for t in range(1, 26))
    if pattern == "SIN1":
        return tuple(round_half_up(70 * math.sin(0.8 * t) + 80)
                     for t in range(1, 26))
    if pattern == "SIN2":
        return tuple(round_half_up(30 * math.sin(0.8 * t) + 100)
                     for t in range(1, 26))
    if pattern == "STA":
        return (100,) * 25
    raise ValueError(f"pattern {pattern} has no closed form")


def demand_means(pattern: str, horizon: int) -> tuple[int, ...]:
    if pattern not in PATTERNS:
        raise ValueError(f"unknown pattern {pattern!r}")
    if horizon == 8:
        return _DEMAND_8[pattern]
    if horizon == 25:
        if pattern in _DEMAND_25_DATA:
            return _DEMAND_25_DATA[pattern]
        return generate_25(pattern)
    raise ValueError(f"unsupported horizon {horizon}; expected 8 or 25")


DEFAULT_K = {8: (200.0, 300.0, 400.0), 25: (500.0, 1000.0, 1500.0)}
DEFAULT_B = (5.0, 10.0, 20.0)
DEFAULT_CV = (0.1, 0.2, 0.3)


@dataclass(frozen=True)
class BenchmarkConfig:
    horizon: int = 8
    patterns: tuple[str, ...] = PATTERNS
    fixed_costs: tuple[float, ...] | None = None  # None: DEFAULT_K[horizon]
    penalty_costs: tuple[float, ...] = DEFAULT_B
    cvs: tuple[float, ...] = DEFAULT_CV
    methods: tuple[str, ...] = ("bs",)
    holding_cost: float = 1.0
    unit_cost: float = 0.0
    initial_inventory: float = 0.0
    segments: int = 11
    strategy: str = "minimax"
    bs_step_size: float | None = None
    replications: int = 10000
    seed: int = 20240101

    def __post_init__(self):
        if self.horizon not in (8, 25):
            raise ValidationError("horizon must be 8 or 25")
        if self.fixed_costs is None:
            object.__setattr__(self, "fixed_costs", DEFAULT_K[self.horizon])
        # methods may be empty: an oracle-only sweep
        for name in ("patterns", "fixed_costs", "penalty_costs", "cvs"):
            if not getattr(self, name):
                raise ValidationError(f"empty {name} list")
        for p in self.patterns:
            if p not in PATTERNS:
                raise ValidationError(f"unknown pattern {p!r}")
        for m in self.methods:
            if m not in ("bs", "mp"):
                raise ValidationError(f"unknown method {m!r}")
        # checked here, so a malformed config stops before the sweep; c >= b,
        # a property of one (c, b) pair, is left to run_instance
        for K in self.fixed_costs:
            if not math.isfinite(K) or K < 0:
                raise ValidationError(f"invalid fixed ordering cost K = {K}")
        for b in self.penalty_costs:
            if not math.isfinite(b) or b <= 0:
                raise ValidationError(f"invalid penalty cost b = {b}")
        for cv in self.cvs:
            if not math.isfinite(cv) or cv < 0:
                raise ValidationError(f"invalid coefficient of variation cv = {cv}")
        if not math.isfinite(self.holding_cost) or self.holding_cost <= 0:
            raise ValidationError(f"invalid holding cost h = {self.holding_cost}")
        if not math.isfinite(self.unit_cost) or self.unit_cost < 0:
            raise ValidationError(f"invalid unit cost c = {self.unit_cost}")
        if not math.isfinite(self.initial_inventory):
            raise ValidationError(
                f"invalid initial inventory {self.initial_inventory}")
        if (isinstance(self.replications, bool)
                or not isinstance(self.replications, Integral)
                or self.replications < 1):
            raise ValidationError(
                f"replications must be a positive integer, got {self.replications!r}")
        self.heuristic_config()  # checks segments, strategy and bs_step_size

    def heuristic_config(self) -> HeuristicConfig:
        return HeuristicConfig(segments=self.segments, strategy=self.strategy,
                               bs_step_size=self.bs_step_size)


def instance_id(pattern: str, K: float, b: float, cv: float, horizon: int) -> str:
    return f"h{horizon}-{pattern}-K{K:g}-b{b:g}-cv{cv:g}"


def instance_seed(master_seed: int, iid: str) -> int:
    return (master_seed * 1000003 + zlib.crc32(iid.encode())) % (2 ** 62)


def build_instances(config: BenchmarkConfig) -> list[Instance]:
    """The config's grid, pattern x K x b x cv. BenchmarkConfig has checked
    every value on its own; an instance whose unit cost is not below its
    penalty is built anyway, so run_instance records it as one failed row
    per method instead of aborting the sweep."""
    out = []
    for pattern in config.patterns:
        means = demand_means(pattern, config.horizon)
        for K in config.fixed_costs:
            for b in config.penalty_costs:
                costs = CostParameters(fixed=K, unit=config.unit_cost,
                                       holding=config.holding_cost, penalty=b)
                for cv in config.cvs:
                    out.append(Instance(
                        costs=costs,
                        demands=tuple(NormalDemand(m, cv * m) for m in means),
                        initial_inventory=config.initial_inventory,
                        name=instance_id(pattern, K, b, cv, config.horizon)))
    return out


@dataclass(frozen=True)
class InstanceResult:
    instance_id: str
    method: str
    status: str               # "ok" | "failed: ..."
    gap_pct: float = math.nan
    sim_mean: float = math.nan
    sim_stderr: float = math.nan
    oracle_cost: float = math.nan
    replications: int = 0
    seed: int = 0

    @property
    def pattern(self) -> str:
        return self.instance_id.split("-")[1]


def run_instance(config: BenchmarkConfig, instance: Instance) -> list:
    """All requested methods on one instance, in config.methods order;
    failures are recorded rows.

    The per-instance work is done once: both heuristics read one cycle
    table (segments, cycle costs and suffix engines), and every policy that
    solved is priced on the same demand blocks (simulate.estimate_gaps).
    Each row is what running its method alone gives.
    """
    seed = instance_seed(config.seed, instance.name)

    def row(method, status, gap=None):
        priced = {} if gap is None else dict(
            gap_pct=gap.gap_pct, sim_mean=gap.simulation.mean,
            sim_stderr=gap.simulation.standard_error, oracle_cost=gap.oracle_cost)
        return InstanceResult(instance_id=instance.name, method=method,
                              status=status, replications=config.replications,
                              seed=seed, **priced)

    try:
        oracle = solve_sdp(instance)
    except Exception as exc:  # no gap without the oracle: every method fails
        status = f"failed: oracle: {type(exc).__name__}: {exc}"
        return [row(method, status) for method in config.methods]
    hcfg = config.heuristic_config()
    table = None
    rows, policies = {}, {}
    for method in config.methods:
        try:
            if table is None:
                table = cycle_table(instance, hcfg)
            heuristic = bs_policy if method == "bs" else mp_policy
            policies[method] = heuristic(instance, hcfg, table=table)
        except Exception as exc:  # recorded, not fatal to the sweep
            rows[method] = row(method, f"failed: {exc}")
    if policies:
        try:
            gaps = estimate_gaps(instance, list(policies.values()),
                                 oracle.expected_cost, config.replications, seed)
        except Exception as exc:
            rows.update((m, row(m, f"failed: {exc}")) for m in policies)
        else:
            rows.update((m, row(m, "ok", gap)) for m, gap in zip(policies, gaps))
    return [rows[method] for method in config.methods]


def _run_instance_star(args):
    return run_instance(*args)


def mean_gap(values: list) -> float:
    """Mean of the gaps, summed left to right by domain.running_sums, so
    it does not depend on whether the interpreter's sum() compensates."""
    return running_sums(values)[-1] / len(values)


@dataclass
class BenchmarkReport:
    config: BenchmarkConfig
    results: list

    def ok_gaps(self, method: str) -> list:
        return [r.gap_pct for r in self.results
                if r.method == method and r.status == "ok"]

    def grouped_means(self, method: str, key_fn) -> dict:
        groups: dict = {}
        for r in self.results:
            if r.method != method or r.status != "ok":
                continue
            groups.setdefault(key_fn(r), []).append(r.gap_pct)
        return {k: mean_gap(v) for k, v in sorted(groups.items())}

    def summary_rows(self) -> list:
        """Mean gap per (grouping, value, method): the published layout."""
        rows = []
        for method in self.config.methods:
            by_pattern = self.grouped_means(method, lambda r: r.pattern)
            for pat, mean in by_pattern.items():
                rows.append(("pattern", pat, method, mean))
            for label, pick in (("K", 2), ("b", 3), ("cv", 4)):
                grouped = self.grouped_means(
                    method, lambda r, pick=pick:
                    float(r.instance_id.split("-")[pick].lstrip("Kbcv")))
                for val, mean in grouped.items():
                    rows.append((label, f"{val:g}", method, mean))
            gaps = self.ok_gaps(method)
            if gaps:
                rows.append(("overall", "mean", method, mean_gap(gaps)))
        return rows


# column names follow the documented result-row interface; the dataclass
# keeps sim_-prefixed names to distinguish them from oracle quantities
_DETAIL_COLUMNS = [("instance_id", "instance_id"), ("method", "method"),
                   ("mean", "sim_mean"), ("stderr", "sim_stderr"),
                   ("replications", "replications"), ("seed", "seed"),
                   ("gap_pct", "gap_pct"), ("status", "status"),
                   ("oracle_cost", "oracle_cost")]


def _header_note(config: BenchmarkConfig) -> str:
    """The first line of both CSV files: the config's h, c and I_0, which
    the source grids leave unstated (h=1 c=0 I_0=0 by default)."""
    h, c, i0 = (str(float(x)).removesuffix(".0") for x in (
        config.holding_cost, config.unit_cost, config.initial_inventory))
    return (f"# note: h={h} c={c} assumed for all grid instances "
            f"(unstated in the source grids); I_0={i0}\n")


def write_detail_csv(report: BenchmarkReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_header_note(report.config))
        writer = csv.writer(fh)
        writer.writerow([col for col, _ in _DETAIL_COLUMNS])
        for r in sorted(report.results, key=lambda r: (r.instance_id, r.method)):
            writer.writerow([getattr(r, attr) for _, attr in _DETAIL_COLUMNS])


def read_detail_csv(path) -> list:
    out = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    reader = csv.DictReader(rows)
    for row in reader:
        out.append(InstanceResult(
            instance_id=row["instance_id"], method=row["method"],
            status=row["status"], gap_pct=float(row["gap_pct"]),
            sim_mean=float(row["mean"]), sim_stderr=float(row["stderr"]),
            oracle_cost=float(row["oracle_cost"]),
            replications=int(row["replications"]), seed=int(row["seed"])))
    return out


def write_summary_csv(report: BenchmarkReport, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_header_note(report.config))
        writer = csv.writer(fh)
        writer.writerow(["grouping", "value", "method", "mean_gap_pct"])
        for row in report.summary_rows():
            writer.writerow([row[0], row[1], row[2], f"{row[3]:.6f}"])


def run_benchmark(config: BenchmarkConfig, jobs: int = 1,
                  detail_path=None) -> BenchmarkReport:
    """Run the configured slice of the grid, 8- or 25-period alike;
    resumes from detail_path.

    A row of an existing detail file counts as done only if its instance
    and method are in the config and its seed and replication count are the
    config's; a stale one is run again and replaced. Rows of instances or
    methods outside the config stay in the file but not in the report.
    `jobs` worker processes run the pending instances, never more workers
    than there are instances.
    """
    if isinstance(jobs, bool) or not isinstance(jobs, Integral) or jobs < 1:
        raise ValidationError(f"jobs must be a positive integer, got {jobs!r}")
    instances = build_instances(config)
    wanted = {(inst.name, m): instance_seed(config.seed, inst.name)
              for inst in instances for m in config.methods}
    done, foreign = {}, []
    if detail_path is not None and os.path.exists(detail_path):
        for row in read_detail_csv(detail_path):
            key = (row.instance_id, row.method)
            if key not in wanted:
                foreign.append(row)
            elif (row.seed, row.replications) == (wanted[key], config.replications):
                done[key] = row
    pending = [inst for inst in instances
               if any((inst.name, m) not in done for m in config.methods)]
    results = list(done.values())
    if jobs > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            for rows in pool.map(_run_instance_star,
                                 [(config, inst) for inst in pending]):
                results.extend(r for r in rows
                               if (r.instance_id, r.method) not in done)
    else:
        for inst in pending:
            rows = run_instance(config, inst)
            results.extend(r for r in rows
                           if (r.instance_id, r.method) not in done)
    report = BenchmarkReport(config=config, results=results)
    if detail_path is not None:
        write_detail_csv(BenchmarkReport(config, results + foreign), detail_path)
    return report
