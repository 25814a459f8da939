"""Output checks for every plan the workloads produce.

An operation fails if it raises or fails any check here; `Checker` counts
failed plans against attempted ones.  The checks call fogplan through module
attributes so that a traced run records them under the latency and solver
layers like any other caller.
"""

from __future__ import annotations

import math

from fogplan import latency, phy, solver

# Relative tolerance for "reproduces": the same float quantities computed
# along two code paths may differ in the last bits.
REL_TOL = 1e-9

# The paper bounds every planner-vs-optimum gap on desk instances below 10%.
MAX_ORACLE_GAP = 0.10

ALL = "all"


def _reproduces(value: float, claimed: float) -> bool:
    return value == claimed or math.isclose(value, claimed, rel_tol=REL_TOL, abs_tol=0.0)


def _slack(value: float) -> float:
    return REL_TOL * max(1.0, abs(value))


def access_total(tasks, rates) -> float:
    """Sum of the radio access delays, the part of total delay no plan moves."""
    return sum(phy.access_delay(float(tasks.data_bits[k]), float(rates[k])) for k in range(tasks.num_tasks))


def fingerprint(result) -> tuple:
    """Everything a rerun of the same solve must reproduce bit for bit."""
    return (
        result.decision.tiers,
        result.objective_s,
        result.total_delay_s,
        result.best_dual_value_s,
        result.duality_gap,
        result.iterations,
        result.converged,
    )


def plan_problems(topology, tasks, rates, scheme, result) -> tuple[list[str], bool]:
    """Problems with one returned plan, and whether it broke a capacity."""
    decision = result.decision
    if len(decision) != tasks.num_tasks:
        return [f"plan covers {len(decision)} of {tasks.num_tasks} tasks"], False
    problems = []
    outside = [k for k, tier in enumerate(decision.tiers) if tier not in scheme.allowed_tiers]
    if outside:
        problems.append(f"tasks {outside[:5]} use tiers outside scheme {scheme.cli_name}")
    violations = latency.check_feasibility(topology, tasks, decision, result.allocation)
    if violations:
        problems.append(f"infeasible: {violations[0]}")
    claimed = result.total_delay_s
    returned = latency.total_delay(topology, tasks, decision, result.allocation, rates)
    if not _reproduces(returned, claimed):
        problems.append(f"returned allocation gives {returned!r} s, plan claims {claimed!r} s")
    exact = solver.allocate_given_decision(decision, tasks, topology)
    reproduced = latency.total_delay(topology, tasks, decision, exact, rates)
    if not _reproduces(reproduced, claimed):
        problems.append(f"exact re-allocation gives {reproduced!r} s, plan claims {claimed!r} s")
    objective = solver.offload_objective(decision, tasks, topology)
    if not _reproduces(objective, result.objective_s):
        problems.append(f"offload objective is {objective!r} s, plan claims {result.objective_s!r} s")
    if not result.best_dual_value_s <= result.objective_s + _slack(result.objective_s):
        problems.append(
            f"weak duality broken: bound {result.best_dual_value_s!r} s > objective {result.objective_s!r} s"
        )
    return problems, bool(violations)


def oracle_problems(topology, tasks, rates, result, truth) -> list[str]:
    """Problems with a FOG plan measured against the exhaustive optimum."""
    problems = []
    if latency.check_feasibility(topology, tasks, truth.decision, truth.allocation):
        problems.append("oracle plan is infeasible")
    optimum = truth.total_delay_s
    bound = result.best_dual_value_s + access_total(tasks, rates)
    if not bound <= optimum + _slack(optimum):
        problems.append(f"dual bound plus access {bound!r} s exceeds the optimum {optimum!r} s")
    if result.total_delay_s < optimum - _slack(optimum):
        problems.append(f"plan {result.total_delay_s!r} s beats the exhaustive optimum {optimum!r} s")
    gap = (result.total_delay_s - optimum) / optimum
    if not gap < MAX_ORACLE_GAP:
        problems.append(f"gap to the optimum {gap:.3%} is not below {MAX_ORACLE_GAP:.0%}")
    return problems


class Checker:
    """Attempted and failed plans of one run, keyed by operation."""

    def __init__(self, max_messages: int = 20):
        self.max_messages = max_messages
        self.plans: dict[int, int] = {}
        self.messages: list[str] = []
        self.infeasible_plans = 0
        self._failed: dict[int, object] = {}

    def attempt(self, op: int, plans: int) -> None:
        self.plans[op] = plans

    def fail(self, op: int, message: str, keys=ALL) -> None:
        """Mark plans of an operation failed: `keys` names them, or ALL."""
        if len(self.messages) < self.max_messages:
            self.messages.append(f"op {op}: {message}")
        if keys == ALL or self._failed.get(op) == ALL:
            self._failed[op] = ALL
        else:
            self._failed.setdefault(op, set()).update(keys)

    def check_plan(self, op: int, key, topology, tasks, rates, scheme, result) -> None:
        problems, infeasible = plan_problems(topology, tasks, rates, scheme, result)
        self.infeasible_plans += int(infeasible)
        if problems:
            self.fail(op, "; ".join(problems), keys={key})

    @property
    def attempted(self) -> int:
        return sum(self.plans.values())

    @property
    def failed(self) -> int:
        return sum(
            self.plans[op] if keys == ALL else min(len(keys), self.plans[op]) for op, keys in self._failed.items()
        )
