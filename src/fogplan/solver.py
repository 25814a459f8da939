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
    epsilon: float = 1e-4
    max_iters: int = 2000
    step_scale: float = 0.25
    stability_window: int = 25
    tie_break: str = "lhc"
    dual_floor_scale: float = 1e-12
    subgradient_clip: float = 1.0
    decision_hysteresis: float = 1e-3
    freeze_after: int = 150
    local_search: bool = True

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0):
            raise ValueError("epsilon must be finite and strictly positive")
        if self.max_iters < 1 or self.stability_window < 1:
            raise ValueError("max_iters and stability_window must be at least 1")
        if not self.step_scale > 0:
            raise ValueError("step_scale must be strictly positive")
        if self.tie_break != "lhc":
            raise ValueError("the only supported tie_break policy is 'lhc'")
        if not 0 < self.dual_floor_scale < 1:
            raise ValueError("dual_floor_scale must lie in (0, 1)")
        if not self.subgradient_clip > 0:
            raise ValueError("subgradient_clip must be strictly positive")
        if not 0 <= self.decision_hysteresis < 1:
            raise ValueError("decision_hysteresis must lie in [0, 1)")
        if self.freeze_after < 1:
            raise ValueError("freeze_after must be at least 1")


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
    """Pool bookkeeping shared by exact evaluation and closed-form allocation.

    Within one capacity pool the optimal split of capacity F over demands w is
    proportional to sqrt(w), which gives the pool cost (sum sqrt(w))^2 / F.
    """

    def __init__(self, tasks: TaskSet, topology: Topology):
        self.topology = topology
        self.ru = topology.user_to_ru
        self.du = topology.user_du
        self.num_rus = topology.num_rus
        self.num_dus = topology.num_dus
        self.cycles = tasks.compute_cycles
        self.fh_demand = tasks.data_bits / topology.fronthaul_se[self.ru]
        self.mh_demand = tasks.data_bits / topology.midhaul_se[self.du]
        self.sqrt_cycles = np.sqrt(self.cycles)
        self.sqrt_fh_demand = np.sqrt(self.fh_demand)
        self.sqrt_mh_demand = np.sqrt(self.mh_demand)

    def loads(self, codes: np.ndarray):
        """Pool sums of sqrt demands under an integer assignment: per-RU MEC,
        per-DU MEC, cloud (a scalar), per-RU fronthaul and per-DU midhaul."""
        mask_l = codes == _CODE_L
        mask_h = codes == _CODE_H
        mask_c = codes == _CODE_C
        mask_hc = mask_h | mask_c
        mecl = np.bincount(self.ru[mask_l], weights=self.sqrt_cycles[mask_l], minlength=self.num_rus)
        mech = np.bincount(self.du[mask_h], weights=self.sqrt_cycles[mask_h], minlength=self.num_dus)
        cloud = self.sqrt_cycles[mask_c].sum()
        fh = np.bincount(self.ru[mask_hc], weights=self.sqrt_fh_demand[mask_hc], minlength=self.num_rus)
        mh = np.bincount(self.du[mask_c], weights=self.sqrt_mh_demand[mask_c], minlength=self.num_dus)
        return mecl, mech, cloud, fh, mh

    def objective(self, codes: np.ndarray) -> float:
        """Minimal offload cost (access excluded) for an integer assignment."""
        topo = self.topology
        mecl, mech, cloud, fh, mh = self.loads(codes)
        return float(
            np.sum(mecl**2 / topo.mecl_capacity_hz)
            + np.sum(mech**2 / topo.mech_capacity_hz)
            + cloud**2 / topo.cloud_capacity_hz
            + np.sum(fh**2 / topo.fronthaul_capacity_hz)
            + np.sum(mh**2 / topo.midhaul_capacity_hz)
        )


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
    codes = decision.codes
    pools = _Pools(tasks, topology)
    mecl_speed: dict[int, float] = {}
    mech_speed: dict[int, float] = {}
    cloud_speed: dict[int, float] = {}
    fronthaul_bw: dict[int, float] = {}
    midhaul_bw: dict[int, float] = {}

    mecl, mech, cloud, fh, mh = pools.loads(codes)
    mask_l = codes == _CODE_L
    mask_h = codes == _CODE_H
    mask_c = codes == _CODE_C
    mask_hc = mask_h | mask_c

    for k in np.flatnonzero(mask_l):
        i = pools.ru[k]
        mecl_speed[int(k)] = float(
            topology.mecl_capacity_hz[i] * pools.sqrt_cycles[k] / mecl[i]
        )
    for k in np.flatnonzero(mask_h):
        j = pools.du[k]
        mech_speed[int(k)] = float(topology.mech_capacity_hz[j] * pools.sqrt_cycles[k] / mech[j])
    for k in np.flatnonzero(mask_c):
        cloud_speed[int(k)] = float(topology.cloud_capacity_hz * pools.sqrt_cycles[k] / cloud)
    for k in np.flatnonzero(mask_hc):
        i = pools.ru[k]
        fronthaul_bw[int(k)] = float(
            topology.fronthaul_capacity_hz[i] * pools.sqrt_fh_demand[k] / fh[i]
        )
    for k in np.flatnonzero(mask_c):
        j = pools.du[k]
        midhaul_bw[int(k)] = float(topology.midhaul_capacity_hz[j] * pools.sqrt_mh_demand[k] / mh[j])

    return Allocation(
        mecl_speed=mecl_speed,
        mech_speed=mech_speed,
        cloud_speed=cloud_speed,
        fronthaul_bw=fronthaul_bw,
        midhaul_bw=midhaul_bw,
    )


def initial_duals(topology: Topology, tasks: TaskSet) -> DualState:
    """Prices that would make each pool exactly tight if every task used it;
    the right order of magnitude wherever the pool could possibly be active."""
    pools = _Pools(tasks, topology)
    mecl = np.bincount(pools.ru, weights=pools.sqrt_cycles, minlength=pools.num_rus)
    mech = np.bincount(pools.du, weights=pools.sqrt_cycles, minlength=pools.num_dus)
    fh = np.bincount(pools.ru, weights=pools.sqrt_fh_demand, minlength=pools.num_rus)
    mh = np.bincount(pools.du, weights=pools.sqrt_mh_demand, minlength=pools.num_dus)
    return DualState(
        mu=(mecl / topology.mecl_capacity_hz) ** 2,
        lam=(mech / topology.mech_capacity_hz) ** 2,
        rho=float((pools.sqrt_cycles.sum() / topology.cloud_capacity_hz) ** 2),
        nu=(fh / topology.fronthaul_capacity_hz) ** 2,
        xi=(mh / topology.midhaul_capacity_hz) ** 2,
    )


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
    ru, du = topology.user_to_ru, topology.user_du
    fh_demand = tasks.data_bits / topology.fronthaul_se[ru]
    mh_demand = tasks.data_bits / topology.midhaul_se[du]
    alpha = _masked_sqrt_share(x[:, _CODE_H], fh_demand, duals.nu[ru], "nu")
    beta = _masked_sqrt_share(x[:, _CODE_C], mh_demand, duals.xi[du], "xi")
    gamma = _masked_sqrt_share(x[:, _CODE_C], fh_demand, duals.nu[ru], "nu")
    return alpha, beta, gamma


def marginal_costs(duals: DualState, tasks: TaskSet, topology: Topology) -> np.ndarray:
    """Per-task price of each tier at the current multipliers, shape (K, 3) in
    L, H, C column order.  Each entry is what one unit of tier weight adds to
    the Lagrangian once the shares take their closed-form values."""
    ru, du = topology.user_to_ru, topology.user_du
    mu_k = duals.mu[ru]
    lam_k = duals.lam[du]
    nu_k = duals.nu[ru]
    xi_k = duals.xi[du]
    if len(ru) and not (
        mu_k.min() > 0 and lam_k.min() > 0 and duals.rho > 0 and nu_k.min() > 0 and xi_k.min() > 0
    ):
        raise ValueError("all multipliers mapped to tasks must be strictly positive")
    cycles = tasks.compute_cycles
    fh_demand = tasks.data_bits / topology.fronthaul_se[ru]
    mh_demand = tasks.data_bits / topology.midhaul_se[du]
    fh_term = 2.0 * np.sqrt(fh_demand * nu_k)
    cost_l = 2.0 * np.sqrt(cycles * mu_k)
    cost_h = 2.0 * np.sqrt(cycles * lam_k) + fh_term
    cost_c = 2.0 * np.sqrt(cycles * duals.rho) + fh_term + 2.0 * np.sqrt(mh_demand * xi_k)
    return np.column_stack((cost_l, cost_h, cost_c))


def _argmin_codes(marginals: np.ndarray, allowed_codes: list[int]) -> np.ndarray:
    sub = marginals[:, allowed_codes]
    if not np.all(np.isfinite(sub)):
        raise ValueError("marginal costs must be finite")
    picks = np.argmin(sub, axis=1)  # first minimum wins: the L < H < C tie order
    return np.asarray(allowed_codes, dtype=np.int64)[picks]


def extract_decision(marginals: np.ndarray, scheme: Scheme, tie_break: str = "lhc") -> Decision:
    """Cheapest allowed tier per task; ties resolve in fixed L, H, C order."""
    if tie_break != "lhc":
        raise ValueError("the only supported tie_break policy is 'lhc'")
    allowed_codes = [TIER_INDEX[t] for t in scheme.allowed_tiers]
    codes = _argmin_codes(np.asarray(marginals, dtype=np.float64), allowed_codes)
    return Decision(tuple(TIERS[c] for c in codes))


def dual_update(
    duals: DualState,
    primal: RelaxedPoint,
    topology: Topology,
    t: int,
    s0: DualState,
    floors: DualState,
    clip: float = 1.0,
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
    ru, du = topology.user_to_ru, topology.user_du
    n_ru, n_du = topology.num_rus, topology.num_dus
    step = 1.0 / math.sqrt(t)

    def excess(load, capacity):
        return np.minimum(load - capacity, clip * capacity)

    g_mu = excess(np.bincount(ru, weights=primal.a, minlength=n_ru), topology.mecl_capacity_hz)
    g_lam = excess(np.bincount(du, weights=primal.b, minlength=n_du), topology.mech_capacity_hz)
    g_rho = excess(primal.c.sum(), topology.cloud_capacity_hz)
    g_nu = excess(
        np.bincount(ru, weights=primal.alpha + primal.gamma, minlength=n_ru),
        topology.fronthaul_capacity_hz,
    )
    g_xi = excess(np.bincount(du, weights=primal.beta, minlength=n_du), topology.midhaul_capacity_hz)

    return DualState(
        mu=np.maximum(floors.mu, duals.mu + step * s0.mu * g_mu),
        lam=np.maximum(floors.lam, duals.lam + step * s0.lam * g_lam),
        rho=max(floors.rho, duals.rho + step * s0.rho * float(g_rho)),
        nu=np.maximum(floors.nu, duals.nu + step * s0.nu * g_nu),
        xi=np.maximum(floors.xi, duals.xi + step * s0.xi * g_xi),
    )


def max_relative_violation(primal: RelaxedPoint, topology: Topology) -> float:
    """Largest (load - capacity)/capacity over all pools; negative when every
    pool is slack."""
    ru, du = topology.user_to_ru, topology.user_du
    rel = [
        np.max(np.bincount(ru, weights=primal.a, minlength=topology.num_rus) / topology.mecl_capacity_hz - 1.0),
        np.max(np.bincount(du, weights=primal.b, minlength=topology.num_dus) / topology.mech_capacity_hz - 1.0),
        primal.c.sum() / topology.cloud_capacity_hz - 1.0,
        np.max(
            np.bincount(ru, weights=primal.alpha + primal.gamma, minlength=topology.num_rus)
            / topology.fronthaul_capacity_hz
            - 1.0
        ),
        np.max(np.bincount(du, weights=primal.beta, minlength=topology.num_dus) / topology.midhaul_capacity_hz - 1.0),
    ]
    return float(max(rel))


def relaxed_objective(topology: Topology, tasks: TaskSet, primal: RelaxedPoint) -> float:
    """Relaxed transport+compute cost of an arbitrary point, with the
    perspective convention 0^2/0 = 0 (and +inf when weight > 0 but share = 0)."""
    ru, du = topology.user_to_ru, topology.user_du
    cycles = tasks.compute_cycles
    fh_demand = tasks.data_bits / topology.fronthaul_se[ru]
    mh_demand = tasks.data_bits / topology.midhaul_se[du]

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


def dual_value(duals: DualState, tasks: TaskSet, topology: Topology, scheme: Scheme) -> float:
    """Lagrangian dual function: cheapest-tier marginals summed over tasks
    minus the priced capacities.  A lower bound on the relaxed optimum."""
    marg = marginal_costs(duals, tasks, topology)
    allowed_codes = [TIER_INDEX[t] for t in scheme.allowed_tiers]
    inner = float(marg[:, allowed_codes].min(axis=1).sum())
    priced = (
        float(duals.mu @ topology.mecl_capacity_hz)
        + float(duals.lam @ topology.mech_capacity_hz)
        + duals.rho * topology.cloud_capacity_hz
        + float(duals.nu @ topology.fronthaul_capacity_hz)
        + float(duals.xi @ topology.midhaul_capacity_hz)
    )
    return inner - priced


def _one_hot(codes: np.ndarray) -> np.ndarray:
    x = np.zeros((codes.size, 3))
    x[np.arange(codes.size), codes] = 1.0
    return x


def _clearing_prices(codes: np.ndarray, pools: _Pools, floors: DualState):
    """Prices that make every pool used by `codes` exactly tight (recovered
    shares equal to the exact allocation); unused pools drop to their floor."""
    topo = pools.topology
    w_mecl, w_mech, w_cloud, w_fh, w_mh = pools.loads(codes)
    mu = np.where(w_mecl > 0, (w_mecl / topo.mecl_capacity_hz) ** 2, floors.mu)
    lam = np.where(w_mech > 0, (w_mech / topo.mech_capacity_hz) ** 2, floors.lam)
    rho = (w_cloud / topo.cloud_capacity_hz) ** 2 if w_cloud > 0 else floors.rho
    nu = np.where(w_fh > 0, (w_fh / topo.fronthaul_capacity_hz) ** 2, floors.nu)
    xi = np.where(w_mh > 0, (w_mh / topo.midhaul_capacity_hz) ** 2, floors.xi)
    return mu, lam, float(rho), nu, xi


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
    topo = pools.topology
    n = codes.size
    n_ru, n_du = pools.num_rus, pools.num_dus
    # Pool layout: per-RU MEC, per-DU MEC, cloud, per-RU fronthaul, per-DU midhaul.
    inv_cap = 1.0 / np.concatenate(
        (
            topo.mecl_capacity_hz,
            topo.mech_capacity_hz,
            [topo.cloud_capacity_hz],
            topo.fronthaul_capacity_hz,
            topo.midhaul_capacity_hz,
        )
    )
    # member[k, tier]: what task k adds to each pool sum when placed on tier.
    member = np.zeros((n, 3, inv_cap.size))
    k = np.arange(n)
    fh_col = n_ru + n_du + 1 + pools.ru
    member[k, _CODE_L, pools.ru] = pools.sqrt_cycles
    member[k, _CODE_H, n_ru + pools.du] = pools.sqrt_cycles
    member[k, _CODE_H, fh_col] = pools.sqrt_fh_demand
    member[k, _CODE_C, n_ru + n_du] = pools.sqrt_cycles
    member[k, _CODE_C, fh_col] = pools.sqrt_fh_demand
    member[k, _CODE_C, 2 * n_ru + n_du + 1 + pools.du] = pools.sqrt_mh_demand

    allowed = np.asarray(allowed_codes, dtype=np.int64)
    codes = codes.copy()
    while True:
        move_task = np.repeat(k, allowed.size)
        move_code = np.tile(allowed, n)
        keep = move_code != codes[move_task]
        move_task, move_code = move_task[keep], move_code[keep]
        delta = member[move_task, move_code] - member[move_task, codes[move_task]]
        mecl, mech, cloud, fh, mh = pools.loads(codes)
        load = np.concatenate((mecl, mech, [cloud], fh, mh))
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
    s0 = subgradient_steps(init, topology, config.step_scale)
    floors = dual_floors(init, config.dual_floor_scale)

    # Hot loop state as raw arrays; DualState/RelaxedPoint wrap them only at
    # the public boundaries.
    mu, lam, rho = init.mu.copy(), init.lam.copy(), init.rho
    nu, xi = init.nu.copy(), init.xi.copy()
    ru, du = pools.ru, pools.du
    n_ru, n_du = pools.num_rus, pools.num_dus
    cap_mecl, cap_mech = topology.mecl_capacity_hz, topology.mech_capacity_hz
    cap_cloud = topology.cloud_capacity_hz
    cap_fh, cap_mh = topology.fronthaul_capacity_hz, topology.midhaul_capacity_hz
    priced_caps = lambda: (  # noqa: E731 - tiny local closure
        mu @ cap_mecl + lam @ cap_mech + rho * cap_cloud + nu @ cap_fh + xi @ cap_mh
    )
    allowed_arr = np.asarray(allowed_codes, dtype=np.int64)
    rows = np.arange(tasks.num_tasks)
    clip = config.subgradient_clip

    dual_trace: list[float] = []
    cand_trace: list[float] = []
    best_trace: list[float] = []
    viol_trace: list[float] = []

    prev_codes = None
    prev_key = None
    stable = 0
    since_improve = 0
    frozen = False
    polished = False
    converged = False
    iterations = 0

    for t in range(1, config.max_iters + 1):
        iterations = t
        mu_k, lam_k, nu_k, xi_k = mu[ru], lam[du], nu[ru], xi[du]
        fh_term = 2.0 * np.sqrt(pools.fh_demand * nu_k)
        marg = np.column_stack(
            (
                2.0 * np.sqrt(pools.cycles * mu_k),
                2.0 * np.sqrt(pools.cycles * lam_k) + fh_term,
                2.0 * np.sqrt(pools.cycles * rho) + fh_term + 2.0 * np.sqrt(pools.mh_demand * xi_k),
            )
        )
        if frozen:
            codes = best_codes
        else:
            codes = allowed_arr[np.argmin(marg[:, allowed_arr], axis=1)]
            if prev_codes is not None and config.decision_hysteresis > 0:
                # A task only moves when the cheapest tier beats its current
                # one by a clear relative margin; marginal near-ties otherwise
                # make tasks flap between tiers forever as prices dither.
                keep = marg[rows, codes] >= (1.0 - config.decision_hysteresis) * marg[rows, prev_codes]
                codes = np.where(keep, prev_codes, codes)
            prev_codes = codes

        mask_l, mask_h, mask_c = codes == _CODE_L, codes == _CODE_H, codes == _CODE_C
        a = np.where(mask_l, np.sqrt(pools.cycles / mu_k), 0.0)
        b = np.where(mask_h, np.sqrt(pools.cycles / lam_k), 0.0)
        c = np.where(mask_c, np.sqrt(pools.cycles / rho), 0.0)
        fh_share = np.sqrt(pools.fh_demand / nu_k)
        alpha = np.where(mask_h, fh_share, 0.0)
        gamma = np.where(mask_c, fh_share, 0.0)
        beta = np.where(mask_c, np.sqrt(pools.mh_demand / xi_k), 0.0)

        load_mecl = np.bincount(ru, weights=a, minlength=n_ru)
        load_mech = np.bincount(du, weights=b, minlength=n_du)
        load_cloud = c.sum()
        load_fh = np.bincount(ru, weights=alpha + gamma, minlength=n_ru)
        load_mh = np.bincount(du, weights=beta, minlength=n_du)

        violation = max(
            np.max(load_mecl / cap_mecl) - 1.0,
            np.max(load_mech / cap_mech) - 1.0,
            load_cloud / cap_cloud - 1.0,
            np.max(load_fh / cap_fh) - 1.0,
            np.max(load_mh / cap_mh) - 1.0,
        )
        previous_best = best_obj
        cand_trace.append(consider(codes))
        # Only a materially better plan resets the stall clock; float-noise
        # improvements would defer the pricing phase forever.
        since_improve = 0 if best_obj < previous_best * (1.0 - 1e-9) else since_improve + 1
        best_trace.append(best_obj)
        dual_trace.append(float(marg[:, allowed_arr].min(axis=1).sum() - priced_caps()))
        viol_trace.append(float(violation))

        key = codes.tobytes()
        stable = stable + 1 if key == prev_key else 1
        prev_key = key
        if stable >= config.stability_window and violation < config.epsilon:
            converged = True
            break

        if not frozen and since_improve >= config.freeze_after:
            # Exploration has stalled: the winner-take-all iterates rarely
            # settle on their own, because the relaxed optimum splits marginal
            # tasks across tiers.  Polish the incumbent by single-swap
            # descent, freeze it, and re-initialize the prices at its exact
            # clearing values (the dual counterpart of the final exact
            # re-allocation); the subgradient updates then hold them there and
            # the recovered shares match the returned allocation.
            if config.local_search and not polished:
                best_codes, best_obj = _local_search(best_codes, best_obj, allowed_codes, pools)
                polished = True
            frozen = True
            mu, lam, rho, nu, xi = _clearing_prices(best_codes, pools, floors)
            continue  # this iterate's loads predate the re-initialized prices

        step = 1.0 / math.sqrt(t)
        mu = np.maximum(floors.mu, mu + step * s0.mu * np.minimum(load_mecl - cap_mecl, clip * cap_mecl))
        lam = np.maximum(floors.lam, lam + step * s0.lam * np.minimum(load_mech - cap_mech, clip * cap_mech))
        rho = max(floors.rho, rho + step * s0.rho * min(load_cloud - cap_cloud, clip * cap_cloud))
        nu = np.maximum(floors.nu, nu + step * s0.nu * np.minimum(load_fh - cap_fh, clip * cap_fh))
        xi = np.maximum(floors.xi, xi + step * s0.xi * np.minimum(load_mh - cap_mh, clip * cap_mh))

    duals = DualState(mu=mu, lam=lam, rho=rho, nu=nu, xi=xi)

    if config.local_search and not polished:
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
