"""Offload planning by convex relaxation and Lagrangian dual decomposition.

Relaxing the 0/1 tier indicators and substituting indicator-weighted resource
shares turns every delay term into a perspective of a convex 1/share term, so
the relaxed problem is convex and its Lagrangian minimizers have closed forms:
for fixed multiplier prices, each share is proportional to the square root of
its demand-to-price ratio, and the per-task cost of choosing a tier collapses
to a marginal price (`marginal_costs`).  The loop alternates winner-take-all
tier picks at current prices with a projected subgradient price update whose
step diminishes as 1/sqrt(t).  Every candidate assignment seen is evaluated
exactly through the per-pool closed form, and the best one is re-allocated
exactly at the end, so the returned plan is always feasible.

The loop's tuning is fixed, not configurable: step 0.25/sqrt(t) in units of
each price's initial value per capacity of excess load, excess clipped at 1
capacity, price floor 1e-12 of the initial price, tier-change hysteresis 1e-3,
freeze after 150 iterations without a material improvement, and a stability
window of 25 identical decisions.  `SolverConfig` holds only the stopping
rule: `epsilon` and `max_iters`.  Each formula the loop uses (marginal prices,
tier pick, share loads, peak overload, dual value, price step) is one private
kernel that the loop and its exported wrapper both call.

Outside the price loop the pools are one vector, in the order per-RU MEC,
per-DU MEC, cloud, per-RU fronthaul, per-DU midhaul.  `_Pools` owns that
layout: its `member[k, tier, p]` holds the square root of task k's demand on
pool p under `tier` (0 where the tier does not use the pool), so the pool
loads, the exact objective sum_p W_p^2 / F_p, the polish and the exact
allocation (share = F_p sqrt(demand) / W_p) all read the same matrix.

Before that re-allocation the best assignment is polished by single- and
pair-move descent (`_local_search`).  The descent scores every move in closed
form from the current pool sums, re-scores exactly only the near-best ones,
and keeps no cache of its own: a pair pass costs O(K^2) time and memory, not
the O(K^3) time of re-scoring every neighbour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latency import TIER_INDEX, Allocation, Decision, total_delay
from .scenario import Scheme, TIERS, TaskSet, Topology

_CODE_L, _CODE_H, _CODE_C = (TIER_INDEX[t] for t in TIERS)

# Relative width of the band of closed-form move scores that the polish
# re-scores exactly.  Their rounding error is near 1e-15 of the objective, so
# the band holds every move whose exact score could be the best.
_RECHECK_BAND = 1e-9

# Fixed tuning of the price loop.
_STEP_SCALE = 0.25  # price move per capacity of excess, relative to its initial value
_SUBGRADIENT_CLIP = 1.0  # excess load is clipped at this many capacities
_DUAL_FLOOR_SCALE = 1e-12  # price floor relative to the initial price
_DECISION_HYSTERESIS = 1e-3  # relative margin by which a new tier must be cheaper
_FREEZE_AFTER = 150  # iterations without a material improvement before freezing
_STABILITY_WINDOW = 25  # identical consecutive decisions needed to converge


@dataclass(frozen=True)
class DualState:
    """Multiplier prices: mu (per-RU MEC cycles), lam (per-DU MEC cycles),
    rho (cloud cycles), nu (per-RU fronthaul Hz), xi (per-DU midhaul Hz)."""

    mu: np.ndarray
    lam: np.ndarray
    rho: float
    nu: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        for name in ("mu", "lam", "nu", "xi"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} must be a flat, finite, non-negative array")
            object.__setattr__(self, name, arr)
        rho = float(self.rho)
        if not math.isfinite(rho) or rho < 0:
            raise ValueError("rho must be finite and non-negative")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class RelaxedPoint:
    """One relaxed iterate: tier weights `x` (rows on the simplex, columns in
    L, H, C order) and the recovered x-weighted resource shares."""

    x: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != 3:
            raise ValueError(f"x must have shape (num_tasks, 3), got {x.shape}")
        if np.any(x < -1e-12) or np.any(x > 1 + 1e-12):
            raise ValueError("tier weights must lie in [0, 1]")
        if x.size and np.max(np.abs(x.sum(axis=1) - 1.0)) > 1e-9:
            raise ValueError("tier weights of each task must sum to 1")
        object.__setattr__(self, "x", x)
        for name in ("a", "b", "c", "alpha", "beta", "gamma"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (x.shape[0],):
                raise ValueError(f"{name} must have one entry per task")
            if np.any(arr < 0) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite and non-negative")
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the price loop: it converges once the decisions have
    been identical for 25 iterations and the peak relative overload of the
    recovered shares is below `epsilon`, and stops after `max_iters`.  The
    rest of the loop is fixed: step 0.25/sqrt(t), clip 1 capacity, floor
    1e-12, hysteresis 1e-3, freeze after 150 stalled iterations."""

    epsilon: float = 1e-4
    max_iters: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and strictly positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class SolveResult:
    """Plan plus diagnostics.  `objective_s` is the transport+compute cost the
    loop optimizes (access excluded); `total_delay_s` adds the radio access
    terms back in.  `trace` holds per-iteration arrays: dual_value_s,
    candidate_objective_s, best_objective_s, max_violation."""

    decision: Decision
    allocation: Allocation
    duals: DualState
    iterations: int
    converged: bool
    objective_s: float
    total_delay_s: float
    best_dual_value_s: float
    duality_gap: float
    trace: dict[str, np.ndarray]


class _Pools:
    """The capacity pools of one problem and the tasks' sqrt demands on them.

    Within one capacity pool the optimal split of capacity F over demands w is
    proportional to sqrt(w), which gives the pool cost (sum sqrt(w))^2 / F.

    Pool vectors are in one order: per-RU MEC, per-DU MEC, cloud, per-RU
    fronthaul, per-DU midhaul.  `capacity` holds each pool's capacity in that
    order, and `member[k, tier, p]` is the square root of task k's demand on
    pool p when it runs on `tier` (0 for pools that tier does not use).
    """

    def __init__(self, tasks: TaskSet, topology: Topology):
        self.ru = topology.user_to_ru
        self.du = topology.user_du
        self.cycles = tasks.compute_cycles
        self.fh_demand = tasks.data_bits / topology.fronthaul_se[self.ru]
        self.mh_demand = tasks.data_bits / topology.midhaul_se[self.du]
        caps = _capacities(topology)
        self.capacity = np.hstack(caps)
        # index of each pool family's first pool in the pool vector
        self.starts = np.cumsum([0] + [np.size(cap) for cap in caps[:-1]])
        mecl, mech, cloud, fh, mh = self.starts
        self.rows = np.arange(tasks.num_tasks)
        k, sqrt_cycles, sqrt_fh = self.rows, np.sqrt(self.cycles), np.sqrt(self.fh_demand)
        self.member = np.zeros((k.size, 3, self.capacity.size))
        self.member[k, _CODE_L, mecl + self.ru] = sqrt_cycles
        self.member[k, _CODE_H, mech + self.du] = sqrt_cycles
        self.member[k, _CODE_H, fh + self.ru] = sqrt_fh
        self.member[k, _CODE_C, cloud] = sqrt_cycles
        self.member[k, _CODE_C, fh + self.ru] = sqrt_fh
        self.member[k, _CODE_C, mh + self.du] = np.sqrt(self.mh_demand)

    def loads(self, codes: np.ndarray) -> np.ndarray:
        """Pool sums of sqrt demands under an integer assignment."""
        return self.member[self.rows, codes].sum(axis=0)

    def objective(self, codes: np.ndarray) -> float:
        """Minimal offload cost (access excluded) for an integer assignment."""
        return float((self.loads(codes) ** 2 / self.capacity).sum())

    def split(self, pool_vector: np.ndarray):
        """A pool vector as (per-RU MEC, per-DU MEC, cloud scalar, per-RU
        fronthaul, per-DU midhaul), the `DualState` order."""
        mecl, mech, cloud, fh, mh = np.split(pool_vector, self.starts[1:])
        return mecl, mech, float(cloud[0]), fh, mh


def _capacities(topology: Topology):
    """Pool capacities in `DualState` order."""
    return (
        topology.mecl_capacity_hz,
        topology.mech_capacity_hz,
        topology.cloud_capacity_hz,
        topology.fronthaul_capacity_hz,
        topology.midhaul_capacity_hz,
    )


def _price_tuple(duals: DualState):
    """Prices as a tuple in `DualState` order: (mu, lam, rho, nu, xi)."""
    return duals.mu, duals.lam, duals.rho, duals.nu, duals.xi


def offload_objective(decision: Decision, tasks: TaskSet, topology: Topology) -> float:
    """Exact minimal transport+compute cost of an integer assignment (seconds,
    access excluded); equals total_delay of allocate_given_decision minus the
    access terms."""
    return _Pools(tasks, topology).objective(decision.codes)


def allocate_given_decision(decision: Decision, tasks: TaskSet, topology: Topology) -> Allocation:
    """Optimal shares for a fixed assignment: every pool splits its capacity
    proportionally to the square root of each member's demand."""
    if len(decision) != tasks.num_tasks:
        raise ValueError("decision and task set sizes differ")
    pools = _Pools(tasks, topology)
    sqrt_demand = pools.member[pools.rows, decision.codes]
    k, p = np.nonzero(sqrt_demand)  # task-major, so each map fills in task order
    share = pools.capacity[p] * sqrt_demand[k, p] / pools.loads(decision.codes)[p]
    family = np.searchsorted(pools.starts, p, side="right") - 1
    return Allocation(*(dict(zip(k[family == f].tolist(), share[family == f].tolist())) for f in range(5)))


def initial_duals(topology: Topology, tasks: TaskSet) -> DualState:
    """Prices that would make each pool exactly tight if every task used it;
    the right order of magnitude wherever the pool could possibly be active."""
    pools = _Pools(tasks, topology)
    # A pool's all-members sum is its load under a uniform plan that uses it;
    # the fronthaul sums under H and under C are the same.
    all_members = pools.member.sum(axis=0).max(axis=0)
    return DualState(*pools.split((all_members / pools.capacity) ** 2))


def subgradient_steps(init: DualState, topology: Topology, step_scale: float) -> DualState:
    """Base step per multiplier, scaled so one full-capacity violation moves
    the price by step_scale times its initial magnitude."""
    return DualState(
        mu=step_scale * init.mu / topology.mecl_capacity_hz,
        lam=step_scale * init.lam / topology.mech_capacity_hz,
        rho=step_scale * init.rho / topology.cloud_capacity_hz,
        nu=step_scale * init.nu / topology.fronthaul_capacity_hz,
        xi=step_scale * init.xi / topology.midhaul_capacity_hz,
    )


def dual_floors(init: DualState, floor_scale: float) -> DualState:
    """Strictly positive floor per active multiplier, keeping closed forms
    finite while staying negligible against each price's natural scale."""
    return DualState(
        mu=floor_scale * init.mu,
        lam=floor_scale * init.lam,
        rho=floor_scale * init.rho,
        nu=floor_scale * init.nu,
        xi=floor_scale * init.xi,
    )


def _masked_sqrt_share(x_col: np.ndarray, demand: np.ndarray, price: np.ndarray, name: str) -> np.ndarray:
    mask = x_col > 0
    if np.any(price[mask] <= 0):
        raise ValueError(f"{name} must be strictly positive wherever the matching tier weight is")
    out = np.zeros_like(x_col)
    out[mask] = x_col[mask] * np.sqrt(demand[mask] / price[mask])
    return out


def primal_speeds_from_duals(
    duals: DualState, x: np.ndarray, tasks: TaskSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary compute shares at the given prices: share = weight times
    sqrt(demand/price), zero wherever the tier weight is zero."""
    x = np.asarray(x, dtype=np.float64)
    cycles = tasks.compute_cycles
    ru, du = topology.user_to_ru, topology.user_du
    a = _masked_sqrt_share(x[:, _CODE_L], cycles, duals.mu[ru], "mu")
    b = _masked_sqrt_share(x[:, _CODE_H], cycles, duals.lam[du], "lam")
    c = _masked_sqrt_share(x[:, _CODE_C], cycles, np.full(len(x), duals.rho), "rho")
    return a, b, c


def primal_bandwidth_from_duals(
    duals: DualState, x: np.ndarray, tasks: TaskSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary bandwidth shares at the given prices (fronthaul for MEC-DU
    tasks, midhaul plus fronthaul for cloud tasks)."""
    x = np.asarray(x, dtype=np.float64)
    pools = _Pools(tasks, topology)
    alpha = _masked_sqrt_share(x[:, _CODE_H], pools.fh_demand, duals.nu[pools.ru], "nu")
    beta = _masked_sqrt_share(x[:, _CODE_C], pools.mh_demand, duals.xi[pools.du], "xi")
    gamma = _masked_sqrt_share(x[:, _CODE_C], pools.fh_demand, duals.nu[pools.ru], "nu")
    return alpha, beta, gamma


def _marginals(pools: _Pools, mu_k, lam_k, rho, nu_k, xi_k) -> np.ndarray:
    """Per-task tier prices, (K, 3) in L, H, C order, at per-task prices."""
    fh_term = 2.0 * np.sqrt(pools.fh_demand * nu_k)
    marg = np.empty((fh_term.size, 3))
    marg[:, _CODE_L] = 2.0 * np.sqrt(pools.cycles * mu_k)
    marg[:, _CODE_H] = 2.0 * np.sqrt(pools.cycles * lam_k) + fh_term
    marg[:, _CODE_C] = 2.0 * np.sqrt(pools.cycles * rho) + fh_term + 2.0 * np.sqrt(pools.mh_demand * xi_k)
    return marg


def marginal_costs(duals: DualState, tasks: TaskSet, topology: Topology) -> np.ndarray:
    """Per-task price of each tier at the current multipliers, shape (K, 3) in
    L, H, C column order.  Each entry is what one unit of tier weight adds to
    the Lagrangian once the shares take their closed-form values."""
    pools = _Pools(tasks, topology)
    mu_k, lam_k = duals.mu[pools.ru], duals.lam[pools.du]
    nu_k, xi_k = duals.nu[pools.ru], duals.xi[pools.du]
    if len(pools.ru) and not (
        mu_k.min() > 0 and lam_k.min() > 0 and duals.rho > 0 and nu_k.min() > 0 and xi_k.min() > 0
    ):
        raise ValueError("all multipliers mapped to tasks must be strictly positive")
    return _marginals(pools, mu_k, lam_k, duals.rho, nu_k, xi_k)


def _pick_tiers(marg: np.ndarray, allowed_codes: np.ndarray) -> np.ndarray:
    """Code of the cheapest allowed tier per task; the first minimum wins, so
    ties resolve in L, H, C order."""
    return allowed_codes[np.argmin(marg[:, allowed_codes], axis=1)]


def extract_decision(marginals: np.ndarray, scheme: Scheme) -> Decision:
    """Cheapest allowed tier per task; ties resolve in fixed L, H, C order."""
    marg = np.asarray(marginals, dtype=np.float64)
    allowed_codes = np.array([TIER_INDEX[t] for t in scheme.allowed_tiers])
    if not np.all(np.isfinite(marg[:, allowed_codes])):
        raise ValueError("marginal costs must be finite")
    return Decision(tuple(TIERS[c] for c in _pick_tiers(marg, allowed_codes)))


def _share_loads(topology: Topology, ru, du, a, b, c, alpha, beta, gamma):
    """Pool loads of recovered shares, in `DualState` order: per-RU MEC,
    per-DU MEC, cloud, per-RU fronthaul and per-DU midhaul."""
    return (
        np.bincount(ru, weights=a, minlength=topology.num_rus),
        np.bincount(du, weights=b, minlength=topology.num_dus),
        c.sum(),
        np.bincount(ru, weights=alpha + gamma, minlength=topology.num_rus),
        np.bincount(du, weights=beta, minlength=topology.num_dus),
    )


def _point_loads(primal: RelaxedPoint, topology: Topology):
    return _share_loads(
        topology, topology.user_to_ru, topology.user_du,
        primal.a, primal.b, primal.c, primal.alpha, primal.beta, primal.gamma,
    )


def _price_step(prices, loads, t: int, s0: DualState, floors: DualState, topology: Topology, clip: float):
    """One projected subgradient step on the price tuple (mu, lam, rho, nu, xi)."""
    mu, lam, rho, nu, xi = prices
    mecl, mech, cloud, fh, mh = loads
    cap_mecl, cap_mech, cap_cloud, cap_fh, cap_mh = _capacities(topology)
    step = 1.0 / math.sqrt(t)
    return (
        np.maximum(floors.mu, mu + step * s0.mu * np.minimum(mecl - cap_mecl, clip * cap_mecl)),
        np.maximum(floors.lam, lam + step * s0.lam * np.minimum(mech - cap_mech, clip * cap_mech)),
        max(floors.rho, rho + step * s0.rho * min(cloud - cap_cloud, clip * cap_cloud)),
        np.maximum(floors.nu, nu + step * s0.nu * np.minimum(fh - cap_fh, clip * cap_fh)),
        np.maximum(floors.xi, xi + step * s0.xi * np.minimum(mh - cap_mh, clip * cap_mh)),
    )


def dual_update(
    duals: DualState,
    primal: RelaxedPoint,
    topology: Topology,
    t: int,
    s0: DualState,
    floors: DualState,
    clip: float = _SUBGRADIENT_CLIP,
) -> DualState:
    """Projected subgradient ascent: price += (s0/sqrt(t)) * excess load,
    clipped at the floor.  Slack pools see negative excess and drift down.

    The excess load is clipped at `clip` capacities per pool: shares recovered
    at a floored price are enormous (share ~ 1/sqrt(price)), and an unbounded
    ascent direction would overshoot the price scale by orders of magnitude.
    The clip never changes the sign or a zero subgradient.
    """
    if t < 1:
        raise ValueError("iteration index must start at 1")
    loads = _point_loads(primal, topology)
    return DualState(*_price_step(_price_tuple(duals), loads, t, s0, floors, topology, clip))


def _peak_overload(loads, topology: Topology) -> float:
    """max(load/capacity) - 1 over all pools, for loads in `DualState` order."""
    mecl, mech, cloud, fh, mh = loads
    return float(
        max(
            (mecl / topology.mecl_capacity_hz).max() - 1.0,
            (mech / topology.mech_capacity_hz).max() - 1.0,
            cloud / topology.cloud_capacity_hz - 1.0,
            (fh / topology.fronthaul_capacity_hz).max() - 1.0,
            (mh / topology.midhaul_capacity_hz).max() - 1.0,
        )
    )


def max_relative_violation(primal: RelaxedPoint, topology: Topology) -> float:
    """Largest (load - capacity)/capacity over all pools; negative when every
    pool is slack."""
    return _peak_overload(_point_loads(primal, topology), topology)


def relaxed_objective(topology: Topology, tasks: TaskSet, primal: RelaxedPoint) -> float:
    """Relaxed transport+compute cost of an arbitrary point, with the
    perspective convention 0^2/0 = 0 (and +inf when weight > 0 but share = 0)."""
    pools = _Pools(tasks, topology)
    cycles, fh_demand, mh_demand = pools.cycles, pools.fh_demand, pools.mh_demand

    def persp(weight, demand, share):
        total = 0.0
        for w, dem, s in zip(weight, demand, share):
            if w == 0:
                continue
            if s <= 0:
                return math.inf
            total += w * w * dem / s
        return total

    x = primal.x
    return float(
        persp(x[:, _CODE_L], cycles, primal.a)
        + persp(x[:, _CODE_H], cycles, primal.b)
        + persp(x[:, _CODE_C], cycles, primal.c)
        + persp(x[:, _CODE_H], fh_demand, primal.alpha)
        + persp(x[:, _CODE_C], fh_demand, primal.gamma)
        + persp(x[:, _CODE_C], mh_demand, primal.beta)
    )


def _dual_value(marg: np.ndarray, allowed_codes, prices, topology: Topology) -> float:
    """Cheapest allowed marginals summed over tasks minus the priced capacities."""
    mu, lam, rho, nu, xi = prices
    priced = (
        mu @ topology.mecl_capacity_hz
        + lam @ topology.mech_capacity_hz
        + rho * topology.cloud_capacity_hz
        + nu @ topology.fronthaul_capacity_hz
        + xi @ topology.midhaul_capacity_hz
    )
    return float(marg[:, allowed_codes].min(axis=1).sum() - priced)


def dual_value(duals: DualState, tasks: TaskSet, topology: Topology, scheme: Scheme) -> float:
    """Lagrangian dual function: cheapest-tier marginals summed over tasks
    minus the priced capacities.  A lower bound on the relaxed optimum."""
    marg = marginal_costs(duals, tasks, topology)
    allowed_codes = [TIER_INDEX[t] for t in scheme.allowed_tiers]
    return _dual_value(marg, allowed_codes, _price_tuple(duals), topology)


def _clearing_prices(codes: np.ndarray, pools: _Pools, floors: DualState):
    """Prices that make every pool used by `codes` exactly tight (recovered
    shares equal to the exact allocation); unused pools drop to their floor."""
    w = pools.loads(codes)
    return pools.split(np.where(w > 0, (w / pools.capacity) ** 2, np.hstack(_price_tuple(floors))))


def _local_search(codes: np.ndarray, objective: float, allowed_codes: list[int], pools: _Pools):
    """Deterministic best-improvement descent over tier changes.

    Single-task moves first; when none improves, coordinated two-task moves
    (which capture exchange-type improvements single moves cannot reach).

    The cost is sum_p W_p^2 / F_p over the pool sums W of sqrt demands, so a
    move that shifts them by d changes it by sum_p (2 W_p d_p + d_p^2) / F_p,
    and two moves together by the sum of their changes plus
    2 sum_p d1_p d2_p / F_p.  Every neighbour is scored that way from the
    current pool sums.  Those scores round differently from the exact
    objective, so the ones within _RECHECK_BAND of the best are re-scored
    exactly in enumeration order (task, then tier in L, H, C order) and a
    move is taken only if its exact objective is strictly below the
    incumbent's: the descent picks the same moves as exact re-scoring of every
    neighbour, and the returned objective is always an exact value.
    """
    member, inv_cap = pools.member, 1.0 / pools.capacity
    allowed = np.asarray(allowed_codes, dtype=np.int64)
    codes = codes.copy()
    while True:
        move_task = np.repeat(pools.rows, allowed.size)
        move_code = np.tile(allowed, codes.size)
        keep = move_code != codes[move_task]
        move_task, move_code = move_task[keep], move_code[keep]
        delta = member[move_task, move_code] - member[move_task, codes[move_task]]
        load = pools.loads(codes)
        single = delta @ (2.0 * load * inv_cap) + (delta * delta) @ inv_cap
        m = single.size

        def exact(moves: list[int]) -> float:
            trial = codes.copy()
            trial[move_task[moves]] = move_code[moves]
            return pools.objective(trial)

        pick, value = _recheck(single, objective, lambda i: exact([i]))
        if pick is not None:
            moves = [pick]
        else:
            pair = single[:, None] + single[None, :] + 2.0 * ((delta * inv_cap) @ delta.T)
            pair[move_task[:, None] >= move_task[None, :]] = np.inf  # each pair once, k1 < k2
            pick, value = _recheck(pair.ravel(), objective, lambda f: exact(list(divmod(f, m))))
            if pick is None:
                return codes, objective
            moves = list(divmod(pick, m))
        codes[move_task[moves]] = move_code[moves]
        objective = value


def _recheck(changes: np.ndarray, objective: float, exact):
    """The move exact re-scoring would pick, given closed-form cost changes
    in enumeration order: (index, exact objective), or (None, objective)
    when no move strictly improves."""
    if changes.size == 0:
        return None, objective
    best = float(changes.min())
    slack = _RECHECK_BAND * max(objective, abs(objective + best))
    if not best <= slack:
        return None, objective
    pick = None
    for i in np.flatnonzero(changes <= best + slack).tolist():
        value = exact(i)
        if value < objective:
            pick, objective = i, value
    return pick, objective


def _empty_result(topology: Topology, tasks: TaskSet) -> SolveResult:
    duals = initial_duals(topology, tasks)
    trace = {name: np.array([]) for name in ("dual_value_s", "candidate_objective_s", "best_objective_s", "max_violation")}
    return SolveResult(
        decision=Decision(()),
        allocation=Allocation(),
        duals=duals,
        iterations=0,
        converged=True,
        objective_s=0.0,
        total_delay_s=0.0,
        best_dual_value_s=0.0,
        duality_gap=0.0,
        trace=trace,
    )


def solve(
    topology: Topology,
    tasks: TaskSet,
    rates_bps,
    scheme: Scheme,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Plan tier assignments and resource shares for one scenario.

    Runs the dual price loop, exactly evaluates every candidate assignment it
    produces (plus the uniform single-tier assignments as baselines), keeps
    the best, polishes it by local descent over single and paired tier
    changes, and re-allocates it exactly.  Deterministic: identical inputs and
    config give identical outputs.  The converged flag reports whether the
    loop settled (stable decisions and peak relative overload below epsilon)
    before max_iters; on non-convergence the best feasible plan found is still
    returned.
    """
    config = config or SolverConfig()
    if tasks.num_tasks == 0:
        return _empty_result(topology, tasks)
    if tasks.num_tasks != topology.num_users:
        raise ValueError("tasks and topology disagree on the number of users")

    pools = _Pools(tasks, topology)
    allowed_codes = [TIER_INDEX[t] for t in scheme.allowed_tiers]

    # The price loop revisits assignments, frozen ones on every iteration:
    # score each distinct one once.  At most max_iters + 3 entries.
    cache: dict[bytes, float] = {}
    best_obj = math.inf
    best_codes = None

    def consider(codes: np.ndarray) -> float:
        nonlocal best_obj, best_codes
        key = codes.tobytes()
        value = cache.get(key)
        if value is None:
            value = cache[key] = pools.objective(codes)
        if value < best_obj:
            best_obj = value
            best_codes = codes.copy()
        return value

    for code in allowed_codes:
        consider(np.full(tasks.num_tasks, code, dtype=np.int64))

    init = initial_duals(topology, tasks)
    s0 = subgradient_steps(init, topology, _STEP_SCALE)
    floors = dual_floors(init, _DUAL_FLOOR_SCALE)

    # Hot loop state is a raw price tuple; DualState/RelaxedPoint wrap it only
    # at the public boundaries.
    prices = _price_tuple(init)
    ru, du = pools.ru, pools.du
    allowed_arr = np.asarray(allowed_codes, dtype=np.int64)
    rows = np.arange(tasks.num_tasks)

    dual_trace: list[float] = []
    cand_trace: list[float] = []
    best_trace: list[float] = []
    viol_trace: list[float] = []

    prev_codes = None
    prev_key = None
    stable = 0
    since_improve = 0
    frozen = False
    converged = False
    iterations = 0

    for t in range(1, config.max_iters + 1):
        iterations = t
        mu, lam, rho, nu, xi = prices
        mu_k, lam_k, nu_k, xi_k = mu[ru], lam[du], nu[ru], xi[du]
        marg = _marginals(pools, mu_k, lam_k, rho, nu_k, xi_k)
        if frozen:
            codes = best_codes
        else:
            codes = _pick_tiers(marg, allowed_arr)
            if prev_codes is not None:
                # A task only moves when the cheapest tier beats its current
                # one by a clear relative margin; marginal near-ties otherwise
                # make tasks flap between tiers forever as prices dither.
                keep = marg[rows, codes] >= (1.0 - _DECISION_HYSTERESIS) * marg[rows, prev_codes]
                codes = np.where(keep, prev_codes, codes)
            prev_codes = codes

        mask_l, mask_h, mask_c = codes == _CODE_L, codes == _CODE_H, codes == _CODE_C
        fh_share = np.sqrt(pools.fh_demand / nu_k)
        loads = _share_loads(
            topology, ru, du,
            np.where(mask_l, np.sqrt(pools.cycles / mu_k), 0.0),
            np.where(mask_h, np.sqrt(pools.cycles / lam_k), 0.0),
            np.where(mask_c, np.sqrt(pools.cycles / rho), 0.0),
            np.where(mask_h, fh_share, 0.0),
            np.where(mask_c, np.sqrt(pools.mh_demand / xi_k), 0.0),
            np.where(mask_c, fh_share, 0.0),
        )
        violation = _peak_overload(loads, topology)
        previous_best = best_obj
        cand_trace.append(consider(codes))
        # Only a materially better plan resets the stall clock; float-noise
        # improvements would defer the pricing phase forever.
        since_improve = 0 if best_obj < previous_best * (1.0 - 1e-9) else since_improve + 1
        best_trace.append(best_obj)
        dual_trace.append(_dual_value(marg, allowed_arr, prices, topology))
        viol_trace.append(violation)

        key = codes.tobytes()
        stable = stable + 1 if key == prev_key else 1
        prev_key = key
        if stable >= _STABILITY_WINDOW and violation < config.epsilon:
            converged = True
            break

        if not frozen and since_improve >= _FREEZE_AFTER:
            # Exploration has stalled: the winner-take-all iterates rarely
            # settle on their own, because the relaxed optimum splits marginal
            # tasks across tiers.  Polish the incumbent by single-swap
            # descent, freeze it, and re-initialize the prices at its exact
            # clearing values (the dual counterpart of the final exact
            # re-allocation); the subgradient updates then hold them there and
            # the recovered shares match the returned allocation.
            best_codes, best_obj = _local_search(best_codes, best_obj, allowed_codes, pools)
            frozen = True
            prices = _clearing_prices(best_codes, pools, floors)
            continue  # this iterate's loads predate the re-initialized prices

        prices = _price_step(prices, loads, t, s0, floors, topology, _SUBGRADIENT_CLIP)

    duals = DualState(*prices)

    if not frozen:  # a frozen incumbent was polished when it froze
        best_codes, best_obj = _local_search(best_codes, best_obj, allowed_codes, pools)

    decision = Decision(tuple(TIERS[c] for c in best_codes))
    allocation = allocate_given_decision(decision, tasks, topology)
    total_s = total_delay(topology, tasks, decision, allocation, rates_bps)
    best_dual = max(dual_trace) if dual_trace else 0.0
    gap = max(0.0, (best_obj - best_dual) / best_obj) if best_obj > 0 else 0.0

    return SolveResult(
        decision=decision,
        allocation=allocation,
        duals=duals,
        iterations=iterations,
        converged=converged,
        objective_s=float(best_obj),
        total_delay_s=total_s,
        best_dual_value_s=float(best_dual),
        duality_gap=float(gap),
        trace={
            "dual_value_s": np.array(dual_trace),
            "candidate_objective_s": np.array(cand_trace),
            "best_objective_s": np.array(best_trace),
            "max_violation": np.array(viol_trace),
        },
    )
