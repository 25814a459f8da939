"""Offload planning by convex relaxation and Lagrangian dual decomposition.

Relaxing the 0/1 tier indicators and substituting indicator-weighted resource
shares turns every delay term into a perspective of a convex 1/share term, so
the relaxed problem is convex and its Lagrangian minimizers have closed forms:
for fixed multiplier prices, each share is proportional to the square root of
its demand-to-price ratio, and the per-task cost of choosing a tier collapses
to a marginal price (`_marginals`).  The loop alternates winner-take-all
tier picks at current prices with a projected subgradient price update whose
step diminishes as 1/sqrt(t).  Every candidate assignment seen is evaluated
exactly through the per-pool closed form, and the best one is re-allocated
exactly at the end, so the returned plan is always feasible.

The loop's tuning is fixed, not configurable: step 0.25/sqrt(t) in units of
each price's initial value per capacity of excess load, excess clipped at 1
capacity, price floor 1e-12 of the initial price, tier-change hysteresis 1e-3,
freeze after 150 iterations without a material improvement, and a stability
window of 25 identical decisions.  A freeze is a stop: the polished incumbent
is priced at its exact clearing values, evaluated there once, and returned.
`SolverConfig` holds only the stopping rule: `epsilon` and `max_iters`.  Each
formula the loop uses (marginal prices, tier pick, share loads, peak overload,
dual value, price step) is one private kernel.

The pools are one vector everywhere, in the order per-RU MEC, per-DU MEC,
cloud, per-RU fronthaul, per-DU midhaul, and `_layout` builds that layout for
one problem (`_Pools`) or for a stack of problems of one shape.  Each task and
tier draws on at most three pools (compute, fronthaul, midhaul), so the price
loop works on a pool-index array and the matching raw demands, stored
term-major as (term, task, tier): one gather of the prices gives every
marginal, and one scatter of the picked tiers' shares gives every pool load.
Term-major, the three terms of a marginal are three contiguous planes added
element by element (in the same order, so to the same bits) rather than a
length-3 innermost axis that numpy reduces one short row at a time; and since
every pool lies in one term plane, the scatter still adds each pool's shares
in task order.  The closed-form shares of `primal_speeds_from_duals` and
`primal_bandwidth_from_duals` read the same gather.  Prices, steps and floors
are pool vectors; `DualState` splits one into its five families only at the
public boundary.  `_Pools.member[k, tier, p]` spreads the same square-root
demands over the whole pool vector, so the exact pool loads, the objective
sum_p W_p^2 / F_p and the polish read one matrix; the exact allocation (share
= F_p sqrt(demand) / W_p) scatters the picked terms' square roots instead and
needs no `member`.

Before that re-allocation the best assignment is polished by single- and
pair-move descent (`_local_search`).  The descent scores every move in closed
form from the current pool sums, re-scores exactly only the near-best ones,
and keeps no cache of its own: a pair pass costs O(K^2) time, not the O(K^3)
time of re-scoring every neighbour, and it scores the pairs in row blocks, so
it holds O(K) pair scores at a time, not O(K^2).

`_solve_batch` takes a stream of problems, such as every sweep point x
realization x scheme of a worker's share of a sweep, and runs consecutive
problems of one shape (users, RUs, DUs) through one price loop, whose layout,
demands and initial prices are built for all of them in one pass.  Problem b
holds row b of every stacked array ((term, problem, task, tier) for the
per-task ones), and its pools are entries b P to b P + P - 1 of one stacked
pool vector, so the gather, tier pick, scatter and price step serve them all,
and the peak overloads, dual values and exact objectives reduce each row on
its own.  The bookkeeping (objective cache, incumbent, stall clock, stability
window, freeze, and a trace packed as 4 floats per iteration) stays per
problem in plain Python, and a problem that stops leaves the stack and is
handed out at once.  No row reads another, so each problem gets the plan it
gets alone; `solve` is the batch of one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .latency import TIER_INDEX, Allocation, Decision, total_delay
from .scenario import Scheme, TIERS, TaskSet, Topology

_CODE_L, _CODE_H, _CODE_C = (TIER_INDEX[t] for t in TIERS)

# Relative width of the band of closed-form move scores that the polish
# re-scores exactly.  Their rounding error is near 1e-15 of the objective, so
# the band holds every move whose exact score could be the best.
_RECHECK_BAND = 1e-9
# First moves whose pair scores the polish holds at once.
_PAIR_BLOCK_ROWS = 64

# Fixed tuning of the price loop.
_STEP_SCALE = 0.25  # price move per capacity of excess, relative to its initial value
_SUBGRADIENT_CLIP = 1.0  # excess load is clipped at this many capacities
_DUAL_FLOOR_SCALE = 1e-12  # price floor relative to the initial price
_DECISION_HYSTERESIS = 1e-3  # relative margin by which a new tier must be cheaper
_FREEZE_AFTER = 150  # iterations without a material improvement before freezing
_STABILITY_WINDOW = 25  # identical consecutive decisions needed to converge

# Most tasks one stacked price loop holds; a longer run of problems of one
# shape goes through consecutive loops, which changes no result.  The stacked
# arrays and the live problems' bookkeeping grow with the loop: 400 streamed
# K=100 problems peak at 46 MB RSS in loops of 40 and at 111 MB in one loop,
# in the same time.
_BATCH_TASKS = 4096


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
            # Checked on a list: a handful of prices per family, where each
            # numpy reduction would cost more than the whole comparison.
            if arr.ndim != 1 or not all(0.0 <= v < math.inf for v in arr.tolist()):
                raise ValueError(f"{name} must be a flat, finite, non-negative array")
            object.__setattr__(self, name, arr)
        rho = float(self.rho)
        if not math.isfinite(rho) or rho < 0:
            raise ValueError("rho must be finite and non-negative")
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of the price loop: it converges once the decisions have
    been identical for 25 iterations and the peak relative overload of the
    recovered shares is below `epsilon`, and stops after `max_iters`.  After
    150 iterations without a material improvement it freezes and stops: the
    polished incumbent is evaluated once at its exact clearing prices, and
    the solve has converged if that evaluation's overload is below
    `epsilon`.  The rest of the loop is fixed: step 0.25/sqrt(t), clip 1
    capacity, floor 1e-12, hysteresis 1e-3."""

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
    """The capacity pools of one problem and the tasks' demands on them.

    Within one capacity pool the optimal split of capacity F over demands w is
    proportional to sqrt(w), which gives the pool cost (sum sqrt(w))^2 / F.

    Pool vectors are in one order: per-RU MEC, per-DU MEC, cloud, per-RU
    fronthaul, per-DU midhaul.  `capacity` holds each pool's capacity in that
    order.  Each task and tier draws on at most three pools, its compute,
    fronthaul and midhaul terms, and the arrays that name them are term-major
    like the price loop's (`_layout`): `index[term, k, tier]` is that pool,
    `demand[term, k, tier]` the raw demand on it (0 for a term the tier does
    not use) and `root` its square root.  `member[k, tier, p]` is the square
    root of task k's demand on pool p when it runs on `tier`, the same
    numbers spread over the whole pool vector; it is built on first use.
    """

    def __init__(self, tasks: TaskSet, topology: Topology):
        (capacity,), starts, index = _layout([topology])
        demand = _demands([topology], [tasks])[:, 0]
        self._set(capacity, starts, index[:, 0], demand, np.sqrt(demand))

    @classmethod
    def of_row(cls, capacity, starts, index, demand, root) -> "_Pools":
        """A problem's pools from its row of a price loop's stacked arrays,
        with the index shifted to name the problem's own pool vector."""
        pools = cls.__new__(cls)
        pools._set(capacity, starts, index, demand, root)
        return pools

    def _set(self, capacity, starts, index, demand, root):
        self.capacity, self.starts, self.index, self.demand, self.root = capacity, starts, index, demand, root
        self.rows = np.arange(index.shape[1])

    @cached_property
    def member(self) -> np.ndarray:
        member = np.zeros((self.rows.size, 3) + self.capacity.shape)
        member[self.rows[:, None], np.arange(3), self.index] = self.root
        return member

    @cached_property
    def uniform(self) -> np.ndarray:
        """(3, P) pool sums of sqrt demands of the three single-tier plans."""
        return _tier_loads(self.index, self.root, self.capacity)

    def loads(self, codes: np.ndarray) -> np.ndarray:
        """Pool sums of sqrt demands under an integer assignment, added in
        task order, so they equal the `_pool_loads` scatter bit for bit."""
        return np.add.reduce(self.member[self.rows, codes], axis=0)

    def objective(self, codes: np.ndarray) -> float:
        """Minimal offload cost (access excluded) for an integer assignment."""
        return float(_cost(self.loads(codes), self.capacity))


def _layout(topologies):
    """The pool vectors of topologies of one shape, stacked: capacities
    (B, P), the index of each family's first pool, and the pool index of each
    (term, problem, task, tier), term-major (3, B, K, 3).  Problem b's pools
    are entries b P to b P + P - 1 of one stacked pool vector, and the index
    names them there.  Unused fronthaul and midhaul terms point at the task's
    own RU and DU pools, so every pool lies in one term plane."""
    capacity = np.array([
        np.concatenate((t.mecl_capacity_hz, t.mech_capacity_hz, (t.cloud_capacity_hz,), t.fronthaul_capacity_hz,
                        t.midhaul_capacity_hz))
        for t in topologies
    ])
    rus, dus = topologies[0].num_rus, topologies[0].num_dus
    mecl, mech, cloud, fh, mh = 0, rus, rus + dus, rus + dus + 1, 2 * rus + dus + 1
    ru = np.array([t.user_to_ru for t in topologies], dtype=np.int64)
    du = np.array([t.user_du for t in topologies], dtype=np.int64)
    index = np.empty((3,) + ru.shape + (3,), dtype=np.int64)
    index[0, ..., _CODE_L] = ru + mecl
    index[0, ..., _CODE_H] = du + mech
    index[0, ..., _CODE_C] = cloud
    index[1] = (ru + fh)[..., None]
    index[2] = (du + mh)[..., None]
    index += np.arange(0, capacity.size, capacity.shape[1])[:, None, None]  # row b's pools start at b P
    return capacity, np.array((mecl, mech, cloud, fh, mh)), index


def _demands(topologies, task_sets) -> np.ndarray:
    """Raw demands laid out like `_layout`'s index, (3, B, K, 3)."""
    bits = np.array([tasks.data_bits for tasks in task_sets])
    demand = np.zeros((3,) + bits.shape + (3,))
    demand[0] = (bits * np.array([tasks.cycles_per_bit for tasks in task_sets]))[..., None]
    demand[1, ..., _CODE_H] = demand[1, ..., _CODE_C] = bits / np.array([t.fronthaul_se[t.user_to_ru] for t in topologies])
    demand[2, ..., _CODE_C] = bits / np.array([t.midhaul_se[t.user_du] for t in topologies])
    return demand


def _tier_loads(index: np.ndarray, root: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """(3, ..., P) pool sums of sqrt demands of the three single-tier plans,
    from term-major arrays whose index names entries of `capacity`, each sum
    added in task order."""
    shifted = index + capacity.size * np.arange(3)
    return np.bincount(shifted.ravel(), weights=root.ravel(), minlength=3 * capacity.size).reshape((3,) + capacity.shape)


def _price_vector(duals: DualState, topology: Topology) -> np.ndarray:
    """Prices as one pool vector in the topology's layout."""
    sizes = (duals.mu.size, duals.lam.size, duals.nu.size, duals.xi.size)
    if sizes != (topology.num_rus, topology.num_dus, topology.num_rus, topology.num_dus):
        raise ValueError("prices need one entry per RU (mu, nu) and per DU (lam, xi) of the topology")
    return np.hstack((duals.mu, duals.lam, duals.rho, duals.nu, duals.xi))


def _dual_state(prices: np.ndarray, starts: np.ndarray) -> DualState:
    """A pool vector of prices as a `DualState`."""
    bounds = starts.tolist() + [prices.size]
    mu, lam, rho, nu, xi = (prices[a:b] for a, b in zip(bounds, bounds[1:]))
    return DualState(mu, lam, float(rho[0]), nu, xi)


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
    codes = decision.codes
    # The (pool, sqrt demand) of each term of each task's tier, (3, K): each
    # pool and each map lies in one term plane, so each pool sums its
    # members and each map fills in task order.
    index, root = pools.index[:, pools.rows, codes], pools.root[:, pools.rows, codes]
    term, k = np.nonzero(root)
    p = index[term, k]
    share = pools.capacity[p] * root[term, k] / _pool_loads(index, root, pools.capacity.size)[p]
    family = np.searchsorted(pools.starts, p, side="right") - 1
    maps: tuple[dict, ...] = ({}, {}, {}, {}, {})
    for task, f, value in zip(k.tolist(), family.tolist(), share.tolist()):
        maps[f][task] = value
    return Allocation(*maps)


def _initial_prices(pools) -> np.ndarray:
    """Prices that would make each pool exactly tight if every task used it,
    for a `_Pools` or a price loop's `_Stack` (one row per problem).

    The loop steps each price by a multiple of price/capacity and divides by
    the prices the tasks read, so both the step scale and the floor of every
    read price must be finite and positive.  A pool no task reads (an RU
    without users) keeps its zero price.  Of several problems, the first one
    that fails names the failure.
    """
    # A pool's all-members sum is its load under a uniform plan that uses it;
    # the fronthaul sums under H and under C are the same.
    all_members = pools.uniform.max(axis=0)
    with np.errstate(over="ignore"):  # an overflow is reported below
        prices = (all_members / pools.capacity) ** 2
        step_scale = _STEP_SCALE * prices / pools.capacity
    finite = np.isfinite(prices) & np.isfinite(step_scale)
    floored = _DUAL_FLOOR_SCALE * prices.ravel()[pools.index] > 0
    if not (finite.all() and floored.all()):
        overflow = ~finite.reshape(-1, prices.shape[-1]).all(axis=1)  # per problem
        underflow = ~np.moveaxis(floored, 0, -2).reshape(overflow.size, -1).all(axis=1)
        if overflow[np.flatnonzero(overflow | underflow)[0]]:
            raise ValueError("initial prices overflow: a pool's capacity is too small for its demand")
        raise ValueError("initial prices underflow: a pool's capacity is too large for its demand")
    return prices


def _stationary_shares(duals: DualState, x, tasks: TaskSet, topology: Topology, terms) -> tuple[np.ndarray, ...]:
    """Share = weight times sqrt(demand/price) for each (tier, term) of
    `_Pools.index` in `terms`, zero wherever the tier weight is zero; only
    those shares' prices must be strictly positive."""
    x = np.asarray(x, dtype=np.float64)
    pools = _Pools(tasks, topology)
    prices = _price_vector(duals, topology)[pools.index]
    shares = []
    for tier, term in terms:
        weight, price = x[:, tier], prices[term, :, tier]
        mask = weight > 0
        if np.any(price[mask] <= 0):
            pool = pools.index[term, 0, tier]
            family = fields(DualState)[np.searchsorted(pools.starts, pool, side="right") - 1].name
            raise ValueError(f"{family} must be strictly positive wherever the matching tier weight is")
        share = np.zeros_like(weight)
        share[mask] = weight[mask] * np.sqrt(pools.demand[term, mask, tier] / price[mask])
        shares.append(share)
    return tuple(shares)


def primal_speeds_from_duals(
    duals: DualState, x: np.ndarray, tasks: TaskSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary compute shares (a, b, c) of the L, H and C tiers at the given
    prices: share = weight times sqrt(demand/price), zero wherever the tier
    weight is zero."""
    return _stationary_shares(duals, x, tasks, topology, ((_CODE_L, 0), (_CODE_H, 0), (_CODE_C, 0)))


def primal_bandwidth_from_duals(
    duals: DualState, x: np.ndarray, tasks: TaskSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary bandwidth shares at the given prices: fronthaul alpha for
    MEC-DU tasks, midhaul beta and fronthaul gamma for cloud tasks."""
    return _stationary_shares(duals, x, tasks, topology, ((_CODE_H, 1), (_CODE_C, 2), (_CODE_C, 1)))


def _marginals(demand: np.ndarray, task_prices: np.ndarray) -> np.ndarray:
    """Per-task tier prices, (..., K, 3) in L, H, C order, from term-major
    demands and prices (3, ..., K, 3): 2 sqrt(demand * price) summed over
    the compute, fronthaul and midhaul terms, in that order.  The terms are
    the leading axis, so the sum adds three contiguous blocks element by
    element instead of reducing a length-3 innermost axis."""
    return np.add.reduce(2.0 * np.sqrt(demand * task_prices), axis=0)


def _barred(scheme: Scheme) -> np.ndarray:
    """+inf for each tier code the scheme does not offer, 0 for the others."""
    return np.array([0.0 if tier in scheme.allowed_tiers else np.inf for tier in TIERS])


def _allowed_marginals(marg: np.ndarray, barred: np.ndarray) -> np.ndarray:
    """Marginals with the barred tiers priced at +inf: a row's argmin is the
    task's cheapest allowed tier (the first minimum, so ties resolve in L, H,
    C order) and its min that tier's price.  Marginals are sums of square
    roots of non-negative finite products, never NaN, so adding 0 leaves an
    offered tier's price exactly as it is."""
    return marg + barred


def _pool_loads(index: np.ndarray, shares: np.ndarray, num_pools: int) -> np.ndarray:
    """Pool vector of summed shares, each share added to the pool `index`
    names for it, in task order."""
    return np.bincount(index.ravel(), weights=shares.ravel(), minlength=num_pools)


def _price_step(prices, loads, t: int, s0, floors, capacity, clip_capacity) -> np.ndarray:
    """One projected subgradient step on a pool vector of prices: price +=
    (s0/sqrt(t)) * excess load, projected onto the floors.  Slack pools see
    negative excess and drift down.

    The excess is clipped at `clip_capacity`: shares recovered at a floored
    price are enormous (share ~ 1/sqrt(price)), and an unbounded ascent
    direction would overshoot the price scale by orders of magnitude.  The
    clip never changes the sign or a zero subgradient.
    """
    step = 1.0 / math.sqrt(t)
    return np.maximum(floors, prices + step * s0 * np.minimum(loads - capacity, clip_capacity))


def _peak_overload(loads: np.ndarray, capacity: np.ndarray):
    """max(load/capacity) - 1 over the pools of each pool vector (last axis)."""
    return np.maximum.reduce(loads / capacity, axis=-1) - 1.0


def _dual_value(cheapest: np.ndarray, prices: np.ndarray, capacity: np.ndarray):
    """Cheapest allowed marginals summed over tasks minus the priced
    capacities, per problem: each task's cheapest allowed marginal (..., K),
    pool vectors (..., P).  Each row's priced capacity is its own
    (1, P) @ (P, 1) product, so no row's value depends on another row."""
    priced = np.matmul(prices[..., None, :], capacity[..., :, None])[..., 0, 0]
    return np.add.reduce(cheapest, axis=-1) - priced


def _cost(loads: np.ndarray, capacity: np.ndarray):
    """sum_p W_p^2 / F_p over the pools of each vector of pool sums W of sqrt
    demands (last axis): the exact offload cost of an integer assignment."""
    return np.add.reduce(loads**2 / capacity, axis=-1)


def _local_search(codes: np.ndarray, objective: float, allowed_codes: list[int], pools: _Pools):
    """Deterministic best-improvement descent over tier changes.

    Single-task moves first; when none improves, coordinated two-task moves
    (which capture exchange-type improvements single moves cannot reach).

    The cost is sum_p W_p^2 / F_p over the pool sums W of sqrt demands, so a
    move that shifts them by d changes it by sum_p (2 W_p d_p + d_p^2) / F_p,
    and two moves together by the sum of their changes plus
    2 sum_p d1_p d2_p / F_p.  Every neighbour is scored that way from the
    current pool sums; pairs are scored _PAIR_BLOCK_ROWS first moves at a
    time, so the pair pass holds O(K) scores, not O(K^2).  Those scores round
    differently from the exact objective, so the ones within _RECHECK_BAND of
    the best are re-scored exactly in enumeration order (task, then tier in
    L, H, C order) and a move is taken only if its exact objective is
    strictly below the incumbent's: the descent picks the same moves as exact
    re-scoring of every neighbour, and the returned objective is always an
    exact value.
    """
    if len(allowed_codes) < 2:  # no tier to move to
        return codes, objective
    member, inv_cap = pools.member, 1.0 / pools.capacity
    allowed = np.asarray(allowed_codes, dtype=np.int64)
    codes = codes.copy()
    every_task = np.repeat(pools.rows, allowed.size)
    every_code = np.tile(allowed, codes.size)
    while True:
        keep = every_code != codes[every_task]
        move_task, move_code = every_task[keep], every_code[keep]
        delta = member[move_task, move_code] - member[move_task, codes[move_task]]
        load = pools.loads(codes)
        single = delta @ (2.0 * load * inv_cap) + (delta * delta) @ inv_cap
        m = single.size

        def exact(moves: list[int]) -> float:
            trial = codes.copy()
            trial[move_task[moves]] = move_code[moves]
            return pools.objective(trial)

        def pair_blocks():
            scaled = delta * inv_cap
            for start in range(0, m, _PAIR_BLOCK_ROWS):
                rows = slice(start, start + _PAIR_BLOCK_ROWS)
                block = single[rows, None] + single[None, :] + 2.0 * (scaled[rows] @ delta.T)
                block[move_task[rows, None] >= move_task[None, :]] = np.inf  # each pair once, k1 < k2
                yield start * m, block.ravel()

        pick, value = _recheck(_near_best([(0, single)], objective), objective, lambda i: exact([i]))
        if pick is not None:
            moves = [pick]
        else:
            candidates = _near_best(pair_blocks(), objective)
            pick, value = _recheck(candidates, objective, lambda f: exact(list(divmod(f, m))))
            if pick is None:
                return codes, objective
            moves = list(divmod(pick, m))
        codes[move_task[moves]] = move_code[moves]
        objective = value


def _near_best(blocks, objective: float) -> list[int]:
    """Indices of the moves whose closed-form cost change is within
    _RECHECK_BAND of the best one, in enumeration order, given the changes as
    (offset, block) pairs in that order; empty when even the best change
    cannot be an improvement.  A block keeps only its entries near the best
    seen so far, a superset of those near the final best."""

    def slack(best: float) -> float:
        return _RECHECK_BAND * max(objective, abs(objective + best))

    best = math.inf
    found = []
    for offset, changes in blocks:
        if changes.size:
            best = min(best, float(np.minimum.reduce(changes)))
            near = (changes <= best + slack(best)).nonzero()[0]
            found.append((near + offset, changes[near]))
    if not (math.isfinite(best) and best <= slack(best)):
        return []
    index, change = (np.concatenate(parts) for parts in zip(*found))
    return index[change <= best + slack(best)].tolist()


def _recheck(candidates: list[int], objective: float, exact):
    """The candidate exact re-scoring would pick: (index, exact objective) of
    the first strictly best one in the given order, or (None, objective) when
    none strictly improves."""
    pick = None
    for i in candidates:
        value = exact(i)
        if value < objective:
            pick, objective = i, value
    return pick, objective


def _empty_result(topology: Topology) -> SolveResult:
    (capacity,), starts, _ = _layout([topology])
    trace = {name: np.array([]) for name in ("dual_value_s", "candidate_objective_s", "best_objective_s", "max_violation")}
    return SolveResult(
        decision=Decision(()),
        allocation=Allocation(),
        duals=_dual_state(np.zeros_like(capacity), starts),
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
    before max_iters.  A loop that stalls for 150 iterations freezes and
    stops there: its polished incumbent is evaluated once at the exact
    clearing prices, which are the returned duals, and it has converged if
    that evaluation's overload is below epsilon.  On non-convergence the best
    feasible plan found is still returned.  This is `_solve_batch` on a batch
    of one.
    """
    [(_, result)] = _solve_batch([(topology, tasks, rates_bps, scheme)], config)
    return result


def _solve_batch(problems, config: SolverConfig | None = None):
    """`solve` on each (topology, tasks, rates_bps, scheme) problem of an
    iterable, yielding (position, result) pairs as the problems stop.

    The problems are drawn lazily.  Consecutive problems with the same number
    of users, RUs and DUs run through one `_price_loop`, at most _BATCH_TASKS
    tasks of them at a time; an empty task set needs no loop and does not
    split a run.  No problem reads another's numbers, so each result is the
    one `solve` gives for that problem alone.
    """
    config = config or SolverConfig()
    chunk: list = []  # (position, problem) pairs of the next loop
    shape = size = None
    for position, problem in enumerate(problems):
        topology, tasks, _, _ = problem
        if tasks.num_tasks == 0:
            yield position, _empty_result(topology)
            continue
        if tasks.num_tasks != topology.num_users:
            raise ValueError("tasks and topology disagree on the number of users")
        key = (tasks.num_tasks, topology.num_rus, topology.num_dus)
        if key != shape or len(chunk) == size:
            if chunk:
                yield from _price_loop(chunk, config)
            chunk, shape, size = [], key, max(1, _BATCH_TASKS // tasks.num_tasks)
        chunk.append((position, problem))
    if chunk:
        yield from _price_loop(chunk, config)


class _Stack:
    """The arrays of the problems still in a `_price_loop`, one row per
    problem: row b's pools are entries b P to b P + P - 1 of one pool vector.

    The pool index, raw demands and their square roots are term-major,
    (3, B, K, 3) for (term, problem, task, tier), so that the marginals add
    three contiguous term planes (see the module docstring); `terms`,
    `demand_terms` and `root_terms` are their (3, B K 3) views, from which the
    picks are taken along axis 1.  `first[b, k]` = 3 (b K + k) is where task
    k of row b has its L tier in the raveled (B, K, 3) marginals and in the
    columns of those views; its H and C tiers follow.  `tier` holds the tier
    code of each raveled entry, as `uint8`.  `uniform`, the single-tier plans'
    pool sums, is built with the stack for the initial prices and is not kept
    by `take`; the loop sets `s0` and `floors`."""

    __slots__ = ("index", "demand", "root", "capacity", "starts", "barred", "uniform", "s0", "floors", "terms",
                 "demand_terms", "root_terms", "first", "tier", "clip", "bars")

    def __init__(self, problems):
        topologies, task_sets, _, schemes = zip(*problems)
        self.capacity, self.starts, self.index = _layout(topologies)
        self.demand = _demands(topologies, task_sets)
        self.root = np.sqrt(self.demand)
        self.uniform = _tier_loads(self.index, self.root, self.capacity)
        barred = {scheme: _barred(scheme) for scheme in set(schemes)}
        self.barred = np.array([barred[scheme] for scheme in schemes])[:, None, :]
        rows, num_tasks = self.demand.shape[1:3]
        self.first = np.arange(0, 3 * rows * num_tasks, 3).reshape(rows, num_tasks)
        self.tier = np.tile(np.arange(3, dtype=np.uint8), rows * num_tasks)
        self.clip = _SUBGRADIENT_CLIP * self.capacity
        self._views()

    def _views(self):
        self.terms, self.demand_terms, self.root_terms = (a.reshape(3, -1) for a in (self.index, self.demand, self.root))
        self.bars = bool(self.barred.any())

    def pools(self, row: int) -> _Pools:
        """The pools of the problem in `row`, as views of the stacked arrays."""
        capacity = self.capacity[row]
        index = self.index[:, row] - row * capacity.size
        return _Pools.of_row(capacity, self.starts, index, self.demand[:, row], self.root[:, row])

    def take(self, keep: np.ndarray) -> "_Stack":
        """The stack of the given rows, in that order."""
        stack = object.__new__(_Stack)
        shift = (keep - np.arange(keep.size)) * self.capacity.shape[1]  # each kept row's pools move down
        stack.index = self.index[:, keep] - shift[:, None, None]
        stack.demand, stack.root, stack.starts = self.demand[:, keep], self.root[:, keep], self.starts
        stack.capacity, stack.s0, stack.floors, stack.clip, stack.barred = (
            array[keep] for array in (self.capacity, self.s0, self.floors, self.clip, self.barred)
        )
        # Row b's entries start at 3 b K in any stack of this shape.
        stack.first, stack.tier = self.first[: keep.size], self.tier[: 3 * keep.size * self.first.shape[1]]
        stack._views()
        return stack


class _Run:
    """One problem's bookkeeping in `_price_loop`, in plain Python: the
    objective cache, the best plan, the stall clock, the stability window,
    whether the plan is frozen, and the trace, packed as 4 floats
    (candidate, best, dual value, violation) per iteration.  `uniform` holds
    the objective of each single-tier plan, in L, H, C order."""

    __slots__ = ("index", "problem", "pools", "allowed", "cache", "best_obj", "best_codes", "since", "stable", "key",
                 "frozen", "trace")

    def __init__(self, index: int, problem, pools: _Pools, uniform: list[float]):
        self.index, self.problem, self.pools = index, problem, pools
        self.allowed = [TIER_INDEX[t] for t in problem[3].allowed_tiers]
        # The price loop revisits assignments: score each distinct one once.
        # Keyed by the assignment's tier codes, one byte per task, which do
        # not depend on the problem's row in the stack.  At most max_iters
        # entries.
        self.cache: dict[bytes, float] = {}
        self.best_obj = math.inf
        self.best_codes = None
        self.since = self.stable = 0
        self.key = None
        self.frozen = False
        self.trace = array("d")
        for code in self.allowed:
            if uniform[code] < self.best_obj:
                self.best_obj, self.best_codes = uniform[code], np.full(pools.rows.size, code, dtype=np.int64)

    def freeze(self, floors: np.ndarray) -> np.ndarray:
        """Polish the incumbent, freeze it, and return the prices at its exact
        clearing values: every pool it uses exactly tight, unused pools at
        their floors."""
        self.best_codes, self.best_obj = _local_search(self.best_codes, self.best_obj, self.allowed, self.pools)
        self.frozen = True
        w = self.pools.loads(self.best_codes)
        return np.where(w > 0, (w / self.pools.capacity) ** 2, floors)

    def settle(self, floors: np.ndarray, barred: np.ndarray, t: int, config: SolverConfig) -> SolveResult:
        """Freeze the run and finish it at its clearing prices.  Iteration t
        of the loop would evaluate the frozen plan there, so unless t is past
        `max_iters` the trace ends with that evaluation, made by the loop's
        kernels on this problem's row (no row reads another, so the numbers
        are the stacked loop's bit for bit), and the run has converged if its
        overload is below epsilon.  Later iterations could only repeat it."""
        prices = self.freeze(floors)
        if t > config.max_iters:
            return self.finish(config.max_iters, False, prices)
        pools, codes = self.pools, self.best_codes
        marg = _marginals(pools.demand, prices.take(pools.index))
        dual = _dual_value(_allowed_marginals(marg, barred).min(axis=-1), prices, pools.capacity)
        index, demand = pools.index[:, pools.rows, codes], pools.demand[:, pools.rows, codes]
        loads = _pool_loads(index, np.sqrt(demand / prices[index]), prices.size)
        overload = float(_peak_overload(loads, pools.capacity))
        value = self.cache.get(codes.astype(np.uint8).tobytes())
        if value is None:
            value = pools.objective(codes)
        self.best_obj = min(self.best_obj, value)
        self.trace.fromlist([value, self.best_obj, float(dual), overload])
        return self.finish(t, overload < config.epsilon, prices)

    def finish(self, iterations: int, converged: bool, prices: np.ndarray) -> SolveResult:
        """Polish and re-allocate the best plan and return it; the loop drops
        the run with it."""
        topology, tasks, rates_bps, _ = self.problem
        if not self.frozen:  # a frozen incumbent was polished when it froze
            self.best_codes, self.best_obj = _local_search(self.best_codes, self.best_obj, self.allowed, self.pools)
        decision = Decision(tuple(TIERS[c] for c in self.best_codes.tolist()))
        allocation = allocate_given_decision(decision, tasks, topology)
        total_s = total_delay(topology, tasks, decision, allocation, rates_bps)
        candidate, best, dual, violation = np.array(self.trace).reshape(-1, 4).T.copy()
        best_dual = max(self.trace[2::4])
        best_obj = self.best_obj
        gap = max(0.0, (best_obj - best_dual) / best_obj) if best_obj > 0 else 0.0
        return SolveResult(
            decision=decision,
            allocation=allocation,
            duals=_dual_state(prices, self.pools.starts),
            iterations=iterations,
            converged=converged,
            objective_s=float(best_obj),
            total_delay_s=total_s,
            best_dual_value_s=float(best_dual),
            duality_gap=float(gap),
            trace={
                "dual_value_s": dual,
                "candidate_objective_s": candidate,
                "best_objective_s": best,
                "max_violation": violation,
            },
        )


def _price_loop(chunk, config: SolverConfig):
    """The price loop on (position, problem) pairs of problems of one shape,
    stacked (`_Stack`), yielding (position, result) pairs as the problems stop.

    One gather of the prices gives every problem's marginals, one tier pick
    and one scatter give every pool load, and one step moves every price;
    the peak overloads, dual values and exact objectives are per-row
    reductions of the loop's kernels.  No row reads another, so each
    problem follows the iterates it would follow alone.  The bookkeeping is
    per problem (`_Run`), and a problem that stops leaves the stack.
    """
    stack = _Stack([problem for _, problem in chunk])
    # Prices, steps and floors are pool vectors, one row per problem, for the
    # whole loop; each DualState is built from its row once, at the end.
    prices = _initial_prices(stack)  # checked before any plan is scored
    stack.s0, stack.floors = _STEP_SCALE * prices / stack.capacity, _DUAL_FLOOR_SCALE * prices
    uniform = _cost(stack.uniform, stack.capacity).T.tolist()  # each single-tier plan's objective, per row
    # The run of each row; each holds views of its row's arrays for the polish.
    live = [_Run(position, problem, stack.pools(row), uniform[row]) for row, (position, problem) in enumerate(chunk)]
    width = stack.first.shape[1]  # bytes per row of tier codes
    epsilon = config.epsilon
    prev = None

    t = 0
    while live and t < config.max_iters:
        # A price at its floor can make a share overflow to inf, and
        # `_price_step` clips the excess it feeds.  The errstate is entered
        # once per stretch of iterations up to the next stop, not per
        # iteration, where its entry cost is a few percent of a desk-scale
        # iteration; results are handed out between stretches, outside it.
        with np.errstate(over="ignore"):
            for t in range(t + 1, config.max_iters + 1):
                task_prices = prices.ravel().take(stack.index)
                marg = _marginals(stack.demand, task_prices)
                allowed_marg = _allowed_marginals(marg, stack.barred) if stack.bars else marg
                # Tier picks as (task, tier) pairs flattened task-major:
                # entries of the raveled marginals and columns of `terms`.  A
                # row of them is the row's assignment offset by `first`.
                cheapest = stack.first + allowed_marg.argmin(axis=-1)
                dual = _dual_value(allowed_marg.ravel().take(cheapest), prices, stack.capacity).tolist()
                picked = cheapest
                if prev is not None:
                    # A task only moves when the cheapest tier beats its
                    # current one by a clear relative margin; marginal
                    # near-ties otherwise make tasks flap between tiers
                    # forever as prices dither.
                    flat = marg.ravel()
                    margin = (1.0 - _DECISION_HYSTERESIS) * flat.take(prev)
                    picked = np.where(flat.take(picked) >= margin, prev, picked)
                prev = picked

                task_demand = stack.demand_terms.take(picked, axis=1)
                shares = np.sqrt(task_demand / task_prices.reshape(3, -1).take(picked, axis=1))
                terms = stack.terms.take(picked, axis=1)
                loads = _pool_loads(terms, shares, prices.size).reshape(prices.shape)
                violation = _peak_overload(loads, stack.capacity).tolist()

                codes = stack.tier[picked]
                blob = codes.tobytes()
                exact = None
                stopped: dict[int, SolveResult] = {}  # row -> result, in row order
                for row, run in enumerate(live):
                    key = blob[row * width : (row + 1) * width]
                    value = run.cache.get(key)
                    if value is None:
                        if exact is None:
                            roots = stack.root_terms.take(picked, axis=1)
                            exact_loads = _pool_loads(terms, roots, prices.size).reshape(prices.shape)
                            exact = _cost(exact_loads, stack.capacity).tolist()
                        value = run.cache[key] = exact[row]
                    best = run.best_obj
                    if value < best:
                        run.best_obj, run.best_codes = value, picked[row] - stack.first[row]
                        # Only a materially better plan resets the stall
                        # clock; float-noise improvements would defer the
                        # pricing phase forever.
                        run.since = 0 if value < best * (1.0 - 1e-9) else run.since + 1
                    else:
                        run.since += 1
                    overload = violation[row]
                    run.trace.fromlist([value, run.best_obj, dual[row], overload])
                    stable = run.stable = run.stable + 1 if key == run.key else 1
                    run.key = key
                    if stable >= _STABILITY_WINDOW and overload < epsilon:
                        stopped[row] = run.finish(t, True, prices[row].copy())
                    elif run.since >= _FREEZE_AFTER:
                        # Exploration has stalled: the winner-take-all
                        # iterates rarely settle on their own, because the
                        # relaxed optimum splits marginal tasks across tiers.
                        # Polish the incumbent by descent, freeze it, and
                        # stop at its exact clearing prices (the dual
                        # counterpart of the final exact re-allocation),
                        # where the recovered shares match the returned
                        # allocation.  No later iteration could change the
                        # frozen plan, so the run ends with the one
                        # evaluation there that the next iteration would make.
                        stopped[row] = run.settle(stack.floors[row], stack.barred[row], t + 1, config)

                prices = _price_step(prices, loads, t, stack.s0, stack.floors, stack.capacity, stack.clip)
                if stopped:
                    break

        for row, result in stopped.items():
            yield live[row].index, result
        if stopped:
            # The last rows move into the stopped ones' places; a moved
            # problem keeps its cache and key, which name no row.
            order = list(range(len(live)))
            for row in reversed(stopped):
                order[row] = order[-1]
                order.pop()
            live = [live[row] for row in order]
            if not live:
                return
            stack = stack.take(np.array(order))
            prices = prices[order]
            prev = stack.first + codes[order]

    for row, run in enumerate(live):
        yield run.index, run.finish(config.max_iters, False, prices[row].copy())
