"""fogplan: latency-minimizing task offloading plans for three-tier fog C-RAN
networks (MEC at radio units, MEC at distributed units, cloud behind the
central unit), with an exhaustive reference solver and a sweep CLI."""

from .latency import (
    Allocation,
    Decision,
    DelayBreakdown,
    Violation,
    check_feasibility,
    task_delay,
    total_delay,
)
from .oracle import OracleResult, enumerate_optimal
from .phy import (
    Beamformer,
    ChannelSet,
    access_delay,
    generate_channels,
    mmse_beamformer,
    sinr,
    uplink_rates,
)
from .scenario import (
    Scenario,
    ScenarioSpec,
    Scheme,
    TaskSet,
    Topology,
    generate_scenario,
    load_scenario,
    save_scenario,
)
from .solver import (
    DualState,
    SolveResult,
    SolverConfig,
    allocate_given_decision,
    offload_objective,
    primal_bandwidth_from_duals,
    primal_speeds_from_duals,
    solve,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "Beamformer",
    "ChannelSet",
    "Decision",
    "DelayBreakdown",
    "DualState",
    "OracleResult",
    "Scenario",
    "ScenarioSpec",
    "Scheme",
    "SolveResult",
    "SolverConfig",
    "TaskSet",
    "Topology",
    "Violation",
    "access_delay",
    "allocate_given_decision",
    "check_feasibility",
    "enumerate_optimal",
    "generate_channels",
    "generate_scenario",
    "load_scenario",
    "mmse_beamformer",
    "offload_objective",
    "primal_bandwidth_from_duals",
    "primal_speeds_from_duals",
    "save_scenario",
    "sinr",
    "solve",
    "task_delay",
    "total_delay",
    "uplink_rates",
]
