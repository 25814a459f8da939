"""Delay model and feasibility checking.

Evaluates the end-to-end delay of any (tier decision, resource allocation)
pair and validates the capacity constraints: per-RU MEC compute (C3), per-DU
MEC compute (C4), cloud compute (C5), per-RU fronthaul bandwidth (C6) and
per-DU midhaul bandwidth (C7).  Reported delays always use the full path
formulas, including the radio access term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .scenario import TIER_C, TIER_H, TIER_L, TIERS, TaskSet, Topology

TIER_INDEX = {tier: idx for idx, tier in enumerate(TIERS)}

# Relative slack when checking <= constraints: allocations come from
# floating-point closed forms that hit capacity with equality.
CAPACITY_REL_TOL = 1e-9


@dataclass(frozen=True)
class Decision:
    """Chosen offloading tier per task; one tier each, by construction."""

    tiers: tuple[str, ...]

    def __post_init__(self):
        tiers = tuple(self.tiers)
        for k, tier in enumerate(tiers):
            if tier not in TIERS:
                raise ValueError(f"decision tier for task {k} must be one of {TIERS}, got {tier!r}")
        object.__setattr__(self, "tiers", tiers)

    def __len__(self) -> int:
        return len(self.tiers)

    @property
    def codes(self) -> np.ndarray:
        """Tiers as small ints in L, H, C order."""
        return np.array([TIER_INDEX[t] for t in self.tiers], dtype=np.int64)


def _positive_entries(name: str, entries: dict) -> dict:
    clean = {}
    for k, v in entries.items():
        value = float(v)
        if not value > 0 or not math.isfinite(value):
            raise ValueError(f"{name}[{k}] = {value} must be strictly positive and finite")
        clean[int(k)] = value
    return clean


@dataclass(frozen=True)
class Allocation:
    """Per-task resource shares, keyed by task index.

    Only tasks that use a resource appear in the corresponding map: MEC-RU
    tasks hold a `mecl_speed`, MEC-DU tasks a `mech_speed` plus a fronthaul
    share, cloud tasks a `cloud_speed` plus fronthaul and midhaul shares.
    """

    mecl_speed: dict[int, float] = field(default_factory=dict)
    mech_speed: dict[int, float] = field(default_factory=dict)
    cloud_speed: dict[int, float] = field(default_factory=dict)
    fronthaul_bw: dict[int, float] = field(default_factory=dict)
    midhaul_bw: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mecl_speed", "mech_speed", "cloud_speed", "fronthaul_bw", "midhaul_bw"):
            object.__setattr__(self, name, _positive_entries(name, getattr(self, name)))


@dataclass(frozen=True)
class DelayBreakdown:
    """Seconds spent on each leg of the chosen path; off-path legs are zero."""

    access_s: float
    fronthaul_s: float
    midhaul_s: float
    compute_s: float
    total_s: float


@dataclass(frozen=True)
class Violation:
    """One capacity constraint exceeded; `index` is the RU/DU (None = cloud)."""

    constraint: str
    resource: str
    index: int | None
    used: float
    capacity: float

    def __str__(self) -> str:
        where = "" if self.index is None else f" at index {self.index}"
        return (
            f"{self.constraint} violated{where}: {self.resource} load "
            f"{self.used:.6g} exceeds capacity {self.capacity:.6g}"
        )


def _require(allocation_map: dict[int, float], name: str, k: int, tier: str) -> float:
    if k not in allocation_map:
        raise ValueError(f"allocation is missing {name} for task {k} (tier {tier})")
    return allocation_map[k]


def _tier_shares(k: int, tier: str, allocation: Allocation) -> tuple[float, float, float]:
    """Compute, fronthaul and midhaul shares of task k on the given tier; an
    infinite share marks a leg the tier does not use."""
    if tier == TIER_L:
        return _require(allocation.mecl_speed, "mecl_speed", k, tier), math.inf, math.inf
    if tier == TIER_H:
        fronthaul = _require(allocation.fronthaul_bw, "fronthaul_bw", k, tier)
        return _require(allocation.mech_speed, "mech_speed", k, tier), fronthaul, math.inf
    if tier == TIER_C:
        fronthaul = _require(allocation.fronthaul_bw, "fronthaul_bw", k, tier)
        midhaul = _require(allocation.midhaul_bw, "midhaul_bw", k, tier)
        return _require(allocation.cloud_speed, "cloud_speed", k, tier), fronthaul, midhaul
    raise ValueError(f"unknown tier {tier!r} for task {k}")


def _delay_legs(paths, rates, shares) -> np.ndarray:
    """Access, fronthaul, midhaul and compute seconds of tasks, (4, ...):
    the delay legs of `task_delay`, `total_delay` and the solver's plan
    totals, written once.  `paths` holds the tasks' data bits, compute
    cycles and the spectral efficiencies of their RU's fronthaul and DU's
    midhaul link, `rates` their uplink rates and `shares` (3, ...) their
    compute, fronthaul and midhaul shares, all float64 arrays.
    An infinite share marks a leg the tier does not use, which takes 0 s.
    The legs are IEEE quotients, reached without warnings: a link rate
    (share times efficiency) that overflows takes 0 s, one that underflows
    to 0 takes inf s, and an uplink rate <= 0 makes the access leg inf."""
    bits, cycles, fronthaul_se, midhaul_se = paths
    with np.errstate(divide="ignore", over="ignore"):
        return np.array((
            np.where(rates <= 0, math.inf, bits / rates),
            bits / (shares[1] * fronthaul_se),
            bits / (shares[2] * midhaul_se),
            cycles / shares[0],
        ))


def _totals(legs: np.ndarray) -> np.ndarray:
    """Total delay over the tasks (last axis) of `_delay_legs`: each task's
    legs added in access, fronthaul, midhaul, compute order, then the tasks
    in task order, so a total has the same bits whatever else is stacked
    with it."""
    return np.cumsum(np.add.reduce(legs, axis=0), axis=-1)[..., -1]


def task_delay(
    topology: Topology,
    tasks: TaskSet,
    k: int,
    tier: str,
    allocation: Allocation,
    access_rate_bps: float,
) -> DelayBreakdown:
    """Delay breakdown of task k on the given tier with the given shares."""
    ru = topology.user_to_ru[k]
    paths = (tasks.data_bits[k], tasks.compute_cycles[k], topology.fronthaul_se[ru],
             topology.midhaul_se[topology.ru_to_du[ru]])
    shares = np.array(_tier_shares(k, tier, allocation))
    legs = _delay_legs(paths, np.float64(access_rate_bps), shares).tolist()
    return DelayBreakdown(*legs, total_s=legs[0] + legs[1] + legs[2] + legs[3])


def check_feasibility(
    topology: Topology,
    tasks: TaskSet,
    decision: Decision,
    allocation: Allocation,
) -> list[Violation]:
    """Every capacity constraint violated by the allocation (empty = feasible).

    Missing shares count as zero load here; path completeness is enforced by
    `task_delay`.
    """
    if len(decision) != tasks.num_tasks:
        raise ValueError("decision and task set sizes differ")
    if tasks.num_tasks != topology.num_users:
        raise ValueError("tasks and topology disagree on the number of users")
    mecl_load = np.zeros(topology.num_rus)
    mech_load = np.zeros(topology.num_dus)
    cloud_load = 0.0
    fronthaul_load = np.zeros(topology.num_rus)
    midhaul_load = np.zeros(topology.num_dus)

    for k, tier in enumerate(decision.tiers):
        ru = int(topology.user_to_ru[k])
        du = int(topology.ru_to_du[ru])
        if tier == TIER_L:
            mecl_load[ru] += allocation.mecl_speed.get(k, 0.0)
        elif tier == TIER_H:
            mech_load[du] += allocation.mech_speed.get(k, 0.0)
            fronthaul_load[ru] += allocation.fronthaul_bw.get(k, 0.0)
        else:
            cloud_load += allocation.cloud_speed.get(k, 0.0)
            fronthaul_load[ru] += allocation.fronthaul_bw.get(k, 0.0)
            midhaul_load[du] += allocation.midhaul_bw.get(k, 0.0)

    violations: list[Violation] = []

    def check(constraint, resource, index, used, capacity):
        if used > capacity * (1.0 + CAPACITY_REL_TOL):
            violations.append(Violation(constraint, resource, index, float(used), float(capacity)))

    for i in range(topology.num_rus):
        check("C3", "mecl_capacity_hz", i, mecl_load[i], topology.mecl_capacity_hz[i])
    for j in range(topology.num_dus):
        check("C4", "mech_capacity_hz", j, mech_load[j], topology.mech_capacity_hz[j])
    check("C5", "cloud_capacity_hz", None, cloud_load, topology.cloud_capacity_hz)
    for i in range(topology.num_rus):
        check("C6", "fronthaul_capacity_hz", i, fronthaul_load[i], topology.fronthaul_capacity_hz[i])
    for j in range(topology.num_dus):
        check("C7", "midhaul_capacity_hz", j, midhaul_load[j], topology.midhaul_capacity_hz[j])
    return violations


def total_delay(
    topology: Topology,
    tasks: TaskSet,
    decision: Decision,
    allocation: Allocation,
    rates_bps,
) -> float:
    """Sum of per-task path delays (the planning objective, access included);
    each task's delay is the `task_delay` total, added in task order."""
    if len(decision) != tasks.num_tasks:
        raise ValueError("decision and task set sizes differ")
    if tasks.num_tasks != topology.num_users:
        raise ValueError("tasks and topology disagree on the number of users")
    rates = np.asarray(rates_bps, dtype=np.float64)
    if rates.shape != (tasks.num_tasks,):
        raise ValueError("rates must hold one entry per task")
    if not tasks.num_tasks:
        return 0.0
    shares = np.array([_tier_shares(k, tier, allocation) for k, tier in enumerate(decision.tiers)]).T
    ru = topology.user_to_ru
    paths = (tasks.data_bits, tasks.compute_cycles, topology.fronthaul_se[ru],
             topology.midhaul_se[topology.ru_to_du[ru]])
    return float(_totals(_delay_legs(paths, rates, shares)))
