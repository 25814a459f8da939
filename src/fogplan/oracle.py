"""Exhaustive ground truth for small instances.

Enumerates every allowed tier assignment, scores each with the exact per-pool
closed-form allocation, and returns the global optimum.  Correctness over
speed: no pruning, deterministic lexicographic tie-breaking.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .latency import TIER_INDEX, Allocation, Decision, total_delay
from .scenario import Scheme, TaskSet, Topology
from .solver import _Pools, allocate_given_decision

DEFAULT_ENUMERATION_CAP = 729


@dataclass(frozen=True)
class OracleResult:
    decision: Decision
    allocation: Allocation
    total_delay_s: float


def enumerate_optimal(
    topology: Topology,
    tasks: TaskSet,
    rates_bps,
    scheme: Scheme,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> OracleResult:
    """Global optimum over all assignments the scheme allows.

    Ties resolve to the lexicographically first assignment (task index order,
    tiers ordered L, H, C).  Instances above `cap` assignments are refused.
    The optimum's total is `total_delay` of its exact allocation, as `solve`
    totals its plan, so equal decisions give equal totals bit for bit.
    """
    n_tasks = tasks.num_tasks
    allowed = scheme.allowed_tiers
    n_decisions = len(allowed) ** n_tasks
    if n_decisions > cap:
        raise ValueError(
            f"{n_decisions} assignments exceed the enumeration cap {cap}; "
            "use solver.solve for instances of this size"
        )
    pools = _Pools(tasks, topology)
    allowed_codes = {tier: TIER_INDEX[tier] for tier in allowed}
    best_obj = np.inf
    best_tiers = ()
    for tiers in itertools.product(allowed, repeat=n_tasks):
        codes = np.fromiter((allowed_codes[t] for t in tiers), dtype=np.int64, count=n_tasks)
        obj = pools.objective(codes)
        if obj < best_obj:
            best_obj = obj
            best_tiers = tiers

    decision = Decision(best_tiers)
    allocation = allocate_given_decision(decision, tasks, topology)
    return OracleResult(
        decision=decision,
        allocation=allocation,
        total_delay_s=total_delay(topology, tasks, decision, allocation, rates_bps),
    )
