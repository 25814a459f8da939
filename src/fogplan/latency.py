"""Delay model and feasibility checking.

The three-tier model is stated once, here: the capacity families with their
constraints C3-C7 (`_FAMILIES`) and the family each tier's legs draw on
(`_TIER_LEGS`), which the solver's pool layout and the CLI's sweep read as
well.  Evaluates the end-to-end delay of any (tier decision, resource
allocation) pair, always with the full path formulas, radio access
included, and validates the capacity constraints.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
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
    """Per-task resource shares, keyed by task index: one map per capacity
    family of `_FAMILIES`.  A task appears in a map only where `_TIER_LEGS`
    gives its tier a leg on that family: MEC-RU tasks hold a `mecl_speed`,
    MEC-DU tasks a `mech_speed` plus a fronthaul share, cloud tasks a
    `cloud_speed` plus fronthaul and midhaul shares.
    """

    mecl_speed: dict[int, float] = field(default_factory=dict)
    mech_speed: dict[int, float] = field(default_factory=dict)
    cloud_speed: dict[int, float] = field(default_factory=dict)
    fronthaul_bw: dict[int, float] = field(default_factory=dict)
    midhaul_bw: dict[int, float] = field(default_factory=dict)

    def __post_init__(self):
        for family in _FAMILIES:
            object.__setattr__(self, family.share, _positive_entries(family.share, getattr(self, family.share)))


# The three-tier model, stated once.  The capacity families, in the order of
# the solver's pool vector, each with the `Allocation` map of its shares, the
# constraint on each of its pools, the `Topology` field of their capacities
# and the `Topology` map from a user to the node of its pool (its RU or DU;
# None: one pool for the whole network).
_Family = namedtuple("_Family", "share constraint capacity node")
_MECL = _Family("mecl_speed", "C3", "mecl_capacity_hz", "user_to_ru")
_MECH = _Family("mech_speed", "C4", "mech_capacity_hz", "user_du")
_CLOUD = _Family("cloud_speed", "C5", "cloud_capacity_hz", None)
_FRONTHAUL = _Family("fronthaul_bw", "C6", "fronthaul_capacity_hz", "user_to_ru")
_MIDHAUL = _Family("midhaul_bw", "C7", "midhaul_capacity_hz", "user_du")
_FAMILIES = (_MECL, _MECH, _CLOUD, _FRONTHAUL, _MIDHAUL)
# The family each tier's compute, fronthaul and midhaul leg draws on, None
# for a leg the tier does not use: L computes at its RU, H at its DU over the
# fronthaul, C in the cloud over the fronthaul and the midhaul.
_TIER_LEGS = {
    TIER_L: (_MECL, None, None),
    TIER_H: (_MECH, _FRONTHAUL, None),
    TIER_C: (_CLOUD, _FRONTHAUL, _MIDHAUL),
}


# The tiers with a leg on each family, and the node maps of the families.
_FAMILY_TIERS = {family: frozenset(tier for tier, legs in _TIER_LEGS.items() if family in legs) for family in _FAMILIES}
_NODES = tuple(dict.fromkeys(family.node for family in _FAMILIES if family.node))


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


def _require(allocation: Allocation, family: _Family, k: int, tier: str) -> float:
    try:
        return getattr(allocation, family.share)[k]
    except KeyError:
        raise ValueError(f"allocation is missing {family.share} for task {k} (tier {tier})") from None


def _tier_shares(k: int, tier: str, allocation: Allocation) -> tuple[float, float, float]:
    """Compute, fronthaul and midhaul shares of task k on the given tier; an
    infinite share marks a leg the tier does not use.  Of several missing
    shares, the fronthaul share is named first, then the midhaul share."""
    try:
        compute, fronthaul, midhaul = _TIER_LEGS[tier]
    except (KeyError, TypeError):
        raise ValueError(f"unknown tier {tier!r} for task {k}") from None
    fronthaul = math.inf if fronthaul is None else _require(allocation, fronthaul, k, tier)
    midhaul = math.inf if midhaul is None else _require(allocation, midhaul, k, tier)
    return _require(allocation, compute, k, tier), fronthaul, midhaul


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


def _paths(topology: Topology, tasks: TaskSet):
    """Each task's data bits, compute cycles and the spectral efficiencies of
    its RU's fronthaul and its DU's midhaul link, (K,) each: the numerators
    and link factors of its delay legs."""
    return (tasks.data_bits, tasks.compute_cycles, topology.fronthaul_se[topology.user_to_ru],
            topology.midhaul_se[topology.user_du])


def task_delay(
    topology: Topology,
    tasks: TaskSet,
    k: int,
    tier: str,
    allocation: Allocation,
    access_rate_bps: float,
) -> DelayBreakdown:
    """Delay breakdown of task k on the given tier with the given shares."""
    paths = [leg[k] for leg in _paths(topology, tasks)]
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
    violations: list[Violation] = []
    # Each user's pool under each node map, and the one pool of a family
    # without a node.
    pools = {node: getattr(topology, node).tolist() for node in _NODES}
    pools[None] = [0] * tasks.num_tasks
    for family in _FAMILIES:
        drawing, shares = _FAMILY_TIERS[family], getattr(allocation, family.share)
        capacity = getattr(topology, family.capacity)
        capacity = [capacity] if family.node is None else capacity.tolist()
        used = [0.0] * len(capacity)
        for k, (tier, i) in enumerate(zip(decision.tiers, pools[family.node])):
            if tier in drawing:
                used[i] += shares.get(k, 0.0)
        for i, (load, room) in enumerate(zip(used, capacity)):
            if load > room * (1.0 + CAPACITY_REL_TOL):
                violations.append(Violation(family.constraint, family.capacity, None if family.node is None else i,
                                            load, room))
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
    rows = itertools.chain.from_iterable(_tier_shares(k, tier, allocation) for k, tier in enumerate(decision.tiers))
    shares = np.fromiter(rows, np.float64, 3 * tasks.num_tasks).reshape(-1, 3).T
    return float(_totals(_delay_legs(_paths(topology, tasks), rates, shares)))
