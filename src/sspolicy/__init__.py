"""Non-stationary (s, S) inventory policy toolkit.

Computes near-optimal per-period (s_t, S_t) policies for the single-item,
single-location stochastic lot-sizing problem: an exact finite-horizon
dynamic-programming benchmark, two linearized-model heuristics (joint-model
and binary-search), a seeded Monte Carlo simulator and a reproducible gap
benchmark over standard demand-pattern grids.
"""
from .domain import (
    CostParameters, Instance, NormalDemand, PolicyParameters,
    ValidationError, make_instance, read_instance, validate, write_instance,
)
from .export import export_lp, render_lp
from .heuristics import HeuristicConfig, bs_policy, mp_policy
from .loss import (
    Partition, PiecewiseLoss, approximation_error, complementary_loss,
    loss, make_partition, piecewise_loss,
)
from .model import (
    MilpModel, build_joint, build_minlp_S, build_minlp_s, build_segments,
    verify_assignment,
)
from .sdp import (
    GridTooSmallError, InventoryGrid, SdpSolution, check_k_convexity,
    default_grid, extract_policy, cost_to_go, solve_sdp,
)
from .simulate import (
    GapEstimate, PricingHelperError, SimulationResult, estimate_gap,
    simulate_policy,
)
from .solver import (
    ExactBackend, SolveResult, SolverError, import_solution, solve_exact,
)
from .testbed import (
    BenchmarkConfig, BenchmarkReport, build_instances, demand_means,
    run_benchmark,
)

__version__ = "0.1.0"
