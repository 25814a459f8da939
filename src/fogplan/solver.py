"""Offload planning by convex relaxation and Lagrangian dual decomposition.

Relaxing the 0/1 tier indicators and substituting indicator-weighted resource
shares turns every delay term into a perspective of a convex 1/share term, so
the relaxed problem is convex and its Lagrangian minimizers have closed forms:
for fixed multiplier prices pi, each share is sqrt(d) / sqrt(pi) for a demand
d, and the per-task cost of choosing a tier collapses to a marginal price
whose terms are 2 sqrt(d) sqrt(pi) (`_marginals`).  The loop alternates
winner-take-all tier picks at current prices with a projected subgradient
price update whose step diminishes as 1/sqrt(t).  Every candidate assignment
seen is evaluated exactly through the per-pool closed form, and the best one
is re-allocated exactly at the end, so the returned plan is always feasible.

The loop's tuning is fixed, not configurable: step 0.25/sqrt(t) in units of
each price's initial value per capacity of excess load, excess clipped at 1
capacity, price floor 1e-12 of the initial price, tier-change hysteresis 1e-3,
a stall after 150 iterations without a material improvement, and a stability
window of 25 identical decisions.  Only the stability window converges: a
stall is a stop, not convergence, and so is `max_iters`.  `SolverConfig`
holds only the stopping rule: `epsilon` and `max_iters`.  Each
formula the loop uses (marginal prices, tier pick, share loads, peak overload,
dual value, price step) is one private kernel.

The pools are one vector everywhere, in the order per-RU MEC, per-DU MEC,
cloud, per-RU fronthaul, per-DU midhaul, and `_layout` builds that layout for
one problem (`_Pools`) or for a stack of problems of one shape.  Each task and
tier draws on at most three pools (compute, fronthaul, midhaul), so the price
loop works on a pool-index array and the matching square-root demands,
stored term-major as (term, task, tier): one square root per pool price and
one gather of those roots give every marginal, and one scatter of the picked
tiers' shares gives every pool load.  Every closed form reads sqrt(d): the
pool cost (sum sqrt(d))^2 / F, the exact share F sqrt(d) / W, and at prices pi
the stationary share and the marginal, so no expression forms d pi or d / pi,
which overflow at extreme but finite inputs where their square roots do not.
Raw demands appear only as the numerators of the delay legs (`_paths`).
Term-major, the three terms of a marginal are three contiguous planes added
element by element (in the same order, so to the same bits) rather than a
length-3 innermost axis that numpy reduces one short row at a time; and since
every pool lies in one term plane, the scatter still adds each pool's shares
in task order.  The closed-form shares of `primal_speeds_from_duals` and
`primal_bandwidth_from_duals` read the same gather.  Prices, steps and floors
are pool vectors; `DualState` splits one into its five families only at the
public boundary.  A scheme has no constraint for a pool none of its tiers
draws on, so that pool's price, step and floor are 0 (`_initial_prices`).
`_Pools.member[k, tier, p]` spreads the same square-root demands over the
whole pool vector, so the exact pool loads, the objective sum_p W_p^2 / F_p
and the polish read one matrix; the exact allocation (share = F_p sqrt(demand)
/ W_p) scatters the picked terms' square roots instead and needs no `member`.

Before that re-allocation the best assignment is polished by single- and
pair-move descent (`_local_search`), run in lockstep over a stack of
problems.  The descent scores every move in closed form from the current pool
sums, re-scores exactly only the near-best ones, and keeps no cache of its
own: a pair pass costs O(K^2) time, not the O(K^3) time of re-scoring every
neighbour, and it scores the pairs in row blocks, so it holds O(K) pair
scores per problem at a time, not O(K^2).

`_solve_batch` takes a stream of problems, such as every sweep point x
realization x scheme of a worker's share of a sweep, and runs consecutive
problems of one shape (users, RUs, DUs) through one price loop, whose layout,
demands and initial prices are built for all of them in one pass.  Problem b
holds row b of every stacked array ((term, problem, task, tier) for the
per-task ones), and its pools are entries b P to b P + P - 1 of one stacked
pool vector, so the gather, tier pick, scatter and price step serve them all,
and the peak overloads, dual values and exact objectives reduce each row on
its own.  The bookkeeping (objective cache, incumbent, stall clock, stability
window, and a trace packed as 4 floats per iteration) stays per problem in
plain Python.  A problem that stops (stable, stalled, or at `max_iters`)
leaves the stack and drops its cache; the loop's prices never leave the
loop.  When the last one stops, the loop finishes them all the same way
(`_finish`): one lockstep polish, and every plan's total delay added up as
arrays.  The loop yields compact plans (`_Plan`: tier codes, packed trace,
counts, objective and total delay), so a sweep builds no `Allocation`,
`DualState` or trace arrays; only `solve` turns its plan into a
`SolveResult` (`_result`), whose duals are the plan's own clearing prices.
No row reads another, so each problem gets the plan it gets alone; `solve`
is the batch of one.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

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
_STALL_AFTER = 150  # iterations without a material improvement that stop a problem
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
    recovered shares is below `epsilon`.  It stops unconverged after 150
    iterations without a material improvement (a stall) or after
    `max_iters`.  The rest of the loop is fixed: step 0.25/sqrt(t), clip 1
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
    like the price loop's (`_layout`): `index[term, k, tier]` is that pool
    and `root[term, k, tier]` the square root of the demand on it (0 for a
    term the tier does not use), from which every closed form is read.
    `member[k, tier, p]` is the square root of task k's demand on pool p
    when it runs on `tier`, the same numbers spread over the whole pool
    vector; it is built on first use.
    It knows no scheme, so it sets no price: `_initial_prices` reads a
    price loop's `_Stack`.
    """

    def __init__(self, tasks: TaskSet, topology: Topology):
        (self.capacity,), self.starts, index = _layout([topology])
        self.index = index[:, 0]
        self.root = _roots(_paths([topology], [tasks]))[:, 0]
        self.rows = np.arange(self.index.shape[1])

    @cached_property
    def member(self) -> np.ndarray:
        return _member(self.index[:, None], self.root[:, None], self.capacity.size)[0]

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
    (term, problem, task, tier), term-major (3, B, K, 3), which names each
    problem's own pools, 0 to P - 1.  Unused fronthaul and midhaul terms
    point at the task's own RU and DU pools, so every pool lies in one term
    plane."""
    capacity = np.array([
        np.concatenate((t.mecl_capacity_hz, t.mech_capacity_hz, (t.cloud_capacity_hz,), t.fronthaul_capacity_hz,
                        t.midhaul_capacity_hz))
        for t in topologies
    ])
    starts = _family_starts(topologies[0])
    mecl, mech, cloud, fh, mh = starts.tolist()
    ru = np.array([t.user_to_ru for t in topologies], dtype=np.int64)
    du = np.array([t.user_du for t in topologies], dtype=np.int64)
    index = np.empty((3,) + ru.shape + (3,), dtype=np.int64)
    index[0, ..., _CODE_L] = ru + mecl
    index[0, ..., _CODE_H] = du + mech
    index[0, ..., _CODE_C] = cloud
    index[1] = (ru + fh)[..., None]
    index[2] = (du + mh)[..., None]
    return capacity, starts, index


def _family_starts(topology: Topology) -> np.ndarray:
    """The index of each pool family's first pool in a pool vector of the
    topology's shape: per-RU MEC, per-DU MEC, cloud, per-RU fronthaul,
    per-DU midhaul."""
    rus, dus = topology.num_rus, topology.num_dus
    return np.array((0, rus, rus + dus, rus + dus + 1, 2 * rus + dus + 1))


def _paths(topologies, task_sets):
    """Each task's data bits, compute cycles and the spectral efficiencies of
    its RU's fronthaul and its DU's midhaul link, (B, K) each: the
    numerators and link factors of its delay legs."""
    return (
        np.array([tasks.data_bits for tasks in task_sets]),
        np.array([tasks.compute_cycles for tasks in task_sets]),
        np.array([t.fronthaul_se[t.user_to_ru] for t in topologies]),
        np.array([t.midhaul_se[t.user_du] for t in topologies]),
    )


def _roots(paths) -> np.ndarray:
    """Square roots of the demands, laid out like `_layout`'s index,
    (3, B, K, 3), from the tasks' `_paths`: compute cycles, then fronthaul
    and midhaul Hz-seconds (bits over spectral efficiency); 0 for a term the
    tier does not use."""
    bits, cycles, fronthaul_se, midhaul_se = paths
    root = np.zeros((3,) + bits.shape + (3,))
    root[0] = np.sqrt(cycles)[..., None]
    root[1, ..., _CODE_H] = root[1, ..., _CODE_C] = np.sqrt(bits / fronthaul_se)
    root[2, ..., _CODE_C] = np.sqrt(bits / midhaul_se)
    return root


def _member(index: np.ndarray, root: np.ndarray, num_pools: int) -> np.ndarray:
    """(B, K, 3, P) square roots of each task's demands spread over its
    problem's pool vector, from term-major (3, B, K, 3) pool indices that
    name each problem's own pools (0 to P - 1) and their sqrt demands."""
    rows, num_tasks = index.shape[1:3]
    member = np.zeros((rows, num_tasks, 3, num_pools))
    member[np.arange(rows)[:, None, None], np.arange(num_tasks)[:, None], np.arange(3), index] = root
    return member


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
    # The (pool, sqrt demand) of each term of each task's tier, (3, K): each
    # map lies in one term plane, so each map fills in task order.
    index, root = pools.index[:, pools.rows, decision.codes], pools.root[:, pools.rows, decision.codes]
    _, share = _shares(index, root, pools.capacity)
    term, k = np.nonzero(root)
    family = np.searchsorted(pools.starts, index[term, k], side="right") - 1
    maps: tuple[dict, ...] = ({}, {}, {}, {}, {})
    for task, f, value in zip(k.tolist(), family.tolist(), share[term, k].tolist()):
        maps[f][task] = value
    return Allocation(*maps)


def _shares(index: np.ndarray, root: np.ndarray, capacity: np.ndarray):
    """Pool sums W of sqrt demands and the exact shares F_p sqrt(d) / W_p,
    for term-major picked terms whose pool `index` names entries of the flat
    `capacity` and whose square-root demands are `root`.  Each pool lies in
    one term plane, so each W_p adds its members in task order.  A term with
    zero demand gets an infinite share, so that its delay d / share is 0."""
    loads = _pool_loads(index, root, capacity.size)
    share = np.divide(capacity.ravel()[index] * root, loads[index], out=np.full(root.shape, math.inf), where=root > 0)
    return loads, share


def _initial_prices(stack: _Stack) -> np.ndarray:
    """Prices that would make each pool of each row of a price loop's stack
    exactly tight if every task used it on a tier the row's scheme allows.

    A scheme has no capacity constraint, and so no price, for a pool that
    none of its tiers draws on: that pool gets price 0, as does a pool no
    task reads at all (an RU without users).  The loop steps each price by a
    multiple of price/capacity and divides by the prices the allowed tiers
    read, so both the step scale and the floor of every such price must be
    finite and positive.  Of several problems, the first one that fails
    names the failure.
    """
    # A pool's all-members sum is its load under an allowed uniform plan that
    # uses it; the fronthaul sums under H and under C are the same.
    all_members = stack.uniform.max(axis=0)
    with np.errstate(over="ignore"):  # an overflow is reported below
        prices = (all_members / stack.capacity) ** 2
        step_scale = _STEP_SCALE * prices / stack.capacity
    finite = np.isfinite(prices) & np.isfinite(step_scale)
    floored = (_DUAL_FLOOR_SCALE * prices.ravel()[stack.index] > 0) | (stack.barred > 0)
    if not (finite.all() and floored.all()):
        overflow = ~finite.all(axis=1)  # per problem
        underflow = ~np.moveaxis(floored, 0, -2).reshape(overflow.size, -1).all(axis=1)
        if overflow[np.flatnonzero(overflow | underflow)[0]]:
            raise ValueError("initial prices overflow: a pool's capacity is too small for its demand")
        raise ValueError("initial prices underflow: a pool's capacity is too large for its demand")
    return prices


def _stationary_shares(duals: DualState, x, tasks: TaskSet, topology: Topology, terms) -> tuple[np.ndarray, ...]:
    """Share = weight times sqrt(demand) / sqrt(price) for each (tier, term)
    of `_Pools.index` in `terms`, zero wherever the tier weight is zero; only
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
        share[mask] = weight[mask] * (pools.root[term, mask, tier] / np.sqrt(price[mask]))
        shares.append(share)
    return tuple(shares)


def primal_speeds_from_duals(
    duals: DualState, x: np.ndarray, tasks: TaskSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary compute shares (a, b, c) of the L, H and C tiers at the given
    prices: share = weight times sqrt(demand) / sqrt(price), zero wherever
    the tier weight is zero."""
    return _stationary_shares(duals, x, tasks, topology, ((_CODE_L, 0), (_CODE_H, 0), (_CODE_C, 0)))


def primal_bandwidth_from_duals(
    duals: DualState, x: np.ndarray, tasks: TaskSet, topology: Topology
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stationary bandwidth shares at the given prices: fronthaul alpha for
    MEC-DU tasks, midhaul beta and fronthaul gamma for cloud tasks."""
    return _stationary_shares(duals, x, tasks, topology, ((_CODE_H, 1), (_CODE_C, 2), (_CODE_C, 1)))


def _marginals(root: np.ndarray, root_prices: np.ndarray) -> np.ndarray:
    """Per-task tier prices, (..., K, 3) in L, H, C order, from term-major
    square roots of demands and of prices (3, ..., K, 3): 2 sqrt(demand)
    sqrt(price) summed over the compute, fronthaul and midhaul terms, in that
    order.  The terms are the leading axis, so the sum adds three contiguous
    blocks element by element instead of reducing a length-3 innermost
    axis."""
    return np.add.reduce(2.0 * root * root_prices, axis=0)


def _barred(scheme: Scheme) -> np.ndarray:
    """+inf for each tier code the scheme does not offer, 0 for the others."""
    return np.array([0.0 if tier in scheme.allowed_tiers else np.inf for tier in TIERS])


def _allowed_marginals(marg: np.ndarray, barred: np.ndarray) -> np.ndarray:
    """Marginals with the barred tiers priced at +inf: a row's argmin is the
    task's cheapest allowed tier (the first minimum, so ties resolve in L, H,
    C order) and its min that tier's price.  Marginals are sums of products
    of finite non-negative square roots, never NaN, so adding 0 leaves an
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


def _local_search(codes: np.ndarray, objective, allowed, member: np.ndarray, capacity: np.ndarray):
    """Deterministic best-improvement descent over tier changes, run in
    lockstep on a stack of problems.

    `codes` (F, K) holds each problem's assignment, `objective` (F,) its
    exact cost and `allowed[f]` the tier codes problem f may use, in L, H, C
    order; `member` (F, K, 3, P) and `capacity` (F, P) are the problems'
    pools (`_member`).  Returns the descended codes and their exact costs as
    new arrays.  At each step every problem still descending takes its best
    single-task move; one with no improving single move takes its best
    coordinated two-task move (which captures exchange-type improvements
    single moves cannot reach), and one with neither is done.  A problem
    with one allowed tier has no move.

    The cost is sum_p W_p^2 / F_p over the pool sums W of sqrt demands, so a
    move that shifts them by d changes it by sum_p (2 W_p d_p + d_p^2) / F_p,
    and two moves together by the sum of their changes plus
    2 sum_p d1_p d2_p / F_p.  Every neighbour of every problem is scored
    that way from the current pool sums, as one batched product; each task
    has as many move slots as the widest scheme in the stack has other
    tiers, and a slot a problem's scheme does not fill scores +inf.  Pairs
    are scored _PAIR_BLOCK_ROWS first moves at a time, so the pair pass
    holds O(K) scores per problem, not O(K^2).  Those scores round
    differently from the exact objective, so in each problem the moves
    within _RECHECK_BAND of its best are re-scored exactly, and the first of
    them in enumeration order (task, then tier) with the least exact
    objective is taken if that is strictly below the incumbent's: each
    problem takes the moves that exact re-scoring of every neighbour would
    take, and its returned objective is always an exact value.  No problem
    reads another's numbers.
    """
    codes, objective = codes.copy(), np.array(objective, dtype=np.float64)
    live = np.flatnonzero([len(tiers) > 1 for tiers in allowed])  # the problems still descending
    if not live.size:
        return codes, objective
    slots = max(map(len, allowed)) - 1  # move slots per task
    # others[f, c]: the tiers problem f allows other than c, in order, then
    # c itself in the slots left over (a move that changes nothing, scored
    # +inf); a code outside the scheme never occurs.
    table = {tiers: [([t for t in tiers if t != c] + [c] * slots)[:slots] for c in range(3)] for tiers in set(allowed)}
    others = np.array([table[tiers] for tiers in allowed], dtype=np.int64).reshape(len(allowed), 3, slots)
    tasks = np.arange(codes.shape[1])
    move_task = np.repeat(tasks, slots)
    m = move_task.size
    inv_cap = 1.0 / capacity
    padded = any(len(tiers) <= slots for tiers in allowed)
    problem, scale = live[:, None], inv_cap[live][:, :, None]
    while live.size:
        current = codes[live]
        move_code = others[problem, current].reshape(live.size, m)
        held = member[problem, tasks, current]  # (A, K, P)
        load = np.add.reduce(held, axis=1)
        delta = member[problem, move_task, move_code]
        delta -= held[:, move_task]
        single = np.matmul(delta * (2.0 * load[:, None] + delta), scale)[..., 0]
        if padded:
            single[move_code == current[:, move_task]] = np.inf  # unfilled slots

        def improve(at, moves):
            """Re-score exactly each candidate: problem live[at] with its row
            of `moves` (move indices) applied.  Each problem with candidates
            takes the one exact re-scoring picks (`_recheck`); returns the
            problems (indices into `codes`) that moved."""
            trial = current[at]
            trial[np.arange(at.size)[:, None], move_task[moves]] = move_code[at[:, None], moves]
            rows = live[at]
            values = _cost(np.add.reduce(member[rows[:, None], tasks, trial], axis=1), capacity[rows])
            picked = _recheck(at, values, objective[rows])
            rows = rows[picked]
            codes[rows], objective[rows] = trial[picked], values[picked]
            return rows

        at, index = _near_best([(0, single)], objective[live])
        moved = at[:0]
        if at.size:
            moved = improve(at, index[:, None])
        if moved.size < live.size:
            rest = np.ones(live.size, dtype=bool)
            rest[np.searchsorted(live, moved)] = False
            rest = rest.nonzero()[0]
            # The pair pass of the problems with no improving single move.
            base, turned = single[rest], delta[rest]
            scaled = turned * scale[rest].transpose(0, 2, 1)
            turned = turned.transpose(0, 2, 1)

            def pair_blocks():
                for start in range(0, m, _PAIR_BLOCK_ROWS):
                    rows = slice(start, start + _PAIR_BLOCK_ROWS)
                    block = base[:, rows, None] + base[:, None, :]
                    block += 2.0 * (scaled[:, rows] @ turned)
                    np.copyto(block, np.inf, where=move_task[rows, None] >= move_task)  # each pair once, k1 < k2
                    yield start * m, block.reshape(rest.size, -1)

            at, index = _near_best(pair_blocks(), objective[live[rest]])
            if at.size:
                moved = np.concatenate((moved, improve(rest[at], np.stack(np.divmod(index, m), axis=1))))
            if moved.size < live.size:  # some problems are done
                live = np.sort(moved)
                problem, scale = live[:, None], inv_cap[live][:, :, None]
    return codes, objective


def _near_best(blocks, objective: np.ndarray):
    """(problem, move) indices of the moves whose closed-form cost change is
    within _RECHECK_BAND of their problem's best one, when that best could
    be an improvement, in enumeration order per problem, given every
    problem's changes as (offset, (A, N) block) pairs in that order.  A
    block keeps its entries near the best seen so far, if that could be an
    improvement: every entry near the final best but some above the band's
    width, which no exact re-scoring could make an improvement."""
    found = []
    for offset, changes in blocks:
        low = np.minimum.reduce(changes, axis=1, initial=np.inf)
        best = np.minimum(best, low) if found else low
        slack = _RECHECK_BAND * np.maximum(objective, np.abs(objective + best))
        limit = np.where(np.isfinite(best) & (best <= slack), best + slack, -np.inf)
        at, index = np.divmod((changes <= limit[:, None]).ravel().nonzero()[0], changes.shape[1])
        found.append((at, index + offset, changes[at, index]))
    if len(found) == 1:
        return found[0][:2]
    at, index, change = (np.concatenate(parts) for parts in zip(*found))
    keep = change <= limit[at]
    at, index = at[keep], index[keep]
    order = np.lexsort((index, at))
    return at[order], index[order]


def _recheck(at: np.ndarray, values: np.ndarray, incumbent: np.ndarray) -> list[int]:
    """The candidates exact re-scoring would pick, given each candidate's
    problem `at` (grouped by problem, in enumeration order), its exact
    objective and its problem's incumbent objective: the position of each
    problem's first strictly best candidate, if that is strictly below the
    incumbent."""
    best: dict[int, tuple[int, float]] = {}
    for i, (problem, value, start) in enumerate(zip(at.tolist(), values.tolist(), incumbent.tolist())):
        if value < best.get(problem, (0, start))[1]:
            best[problem] = i, value
    return [i for i, _ in best.values()]


class _Plan(NamedTuple):
    """One solved problem as `_solve_batch` yields it: the best plan's tier
    codes, the trace packed as 4 floats (candidate, best, dual value,
    violation) per iteration, the iteration count, whether the loop
    converged (stopped on its stability rule), the plan's exact objective
    and the total delay of its exact re-allocation, access included.
    `_result` makes it a `SolveResult`."""

    codes: np.ndarray
    trace: array
    iterations: int
    converged: bool
    objective_s: float
    total_delay_s: float


def _result(plan: _Plan, problem) -> SolveResult:
    """The `SolveResult` of a plan of a (topology, tasks, rates_bps, scheme)
    problem.  The allocation and total delay come from the public
    `allocate_given_decision` and `total_delay`, so that a tracer wrapping
    them sees them under `solve`; they give the plan's own shares and total
    bit for bit.  The duals are the plan's clearing prices (W_p / F_p)^2,
    from the pool sums W of its picked square-root demands: at them every
    stationary share is the plan's exact share, and a pool the plan does not
    load is slack, so its multiplier is 0."""
    topology, tasks, rates_bps, _ = problem
    decision = Decision(tuple(TIERS[c] for c in plan.codes.tolist()))
    allocation = allocate_given_decision(decision, tasks, topology)
    pools = _Pools(tasks, topology)
    pick = (slice(None), pools.rows, plan.codes)
    loads = _pool_loads(pools.index[pick], pools.root[pick], pools.capacity.size)
    candidate, best, dual, violation = np.array(plan.trace).reshape(-1, 4).T.copy()
    best_dual = max(plan.trace[2::4], default=0.0)
    best_obj = plan.objective_s
    gap = max(0.0, (best_obj - best_dual) / best_obj) if best_obj > 0 else 0.0
    return SolveResult(
        decision=decision,
        allocation=allocation,
        duals=_dual_state((loads / pools.capacity) ** 2, pools.starts),
        iterations=plan.iterations,
        converged=plan.converged,
        objective_s=best_obj,
        total_delay_s=total_delay(topology, tasks, decision, allocation, rates_bps),
        best_dual_value_s=float(best_dual),
        duality_gap=float(gap),
        trace={
            "dual_value_s": dual,
            "candidate_objective_s": candidate,
            "best_objective_s": best,
            "max_violation": violation,
        },
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
    before max_iters.  A loop that stalls for 150 iterations stops there
    unconverged, as does one cut by max_iters.  Whatever stopped the loop,
    the best plan it found is polished and returned with its own clearing
    prices as the duals.  This is `_solve_batch` on a batch of one, whose
    plan `_result` turns into the returned `SolveResult`.
    """
    problem = (topology, tasks, rates_bps, scheme)
    [(_, plan)] = _solve_batch([problem], config)
    return _result(plan, problem)


def _solve_batch(problems, config: SolverConfig | None = None):
    """`solve` on each (topology, tasks, rates_bps, scheme) problem of an
    iterable, yielding (position, `_Plan`) pairs.

    The problems are drawn lazily.  Consecutive problems with the same number
    of users, RUs and DUs run through one `_price_loop`, at most _BATCH_TASKS
    tasks of them at a time, and that loop's plans are yielded together
    when its last problem stops; an empty task set needs no loop, is yielded
    at once and does not split a run.  No problem reads another's numbers,
    so each plan is the one `solve` gives for that problem alone.  A plan
    carries its total delay but no `Allocation`, `DualState` or trace
    arrays: `_result` builds those for one plan.
    """
    config = config or SolverConfig()
    chunk: list = []  # (position, problem) pairs of the next loop
    shape = size = None
    for position, problem in enumerate(problems):
        topology, tasks, rates, _ = problem
        if tasks.num_tasks == 0:
            yield position, _Plan(np.zeros(0, dtype=np.int64), array("d"), 0, True, 0.0, 0.0)
            continue
        if tasks.num_tasks != topology.num_users:
            raise ValueError("tasks and topology disagree on the number of users")
        if np.shape(rates) != (tasks.num_tasks,):
            raise ValueError("rates must hold one entry per task")
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

    The pool index and the square roots of the demands (`_roots`) are
    term-major, (3, B, K, 3) for (term, problem, task, tier), so that the
    marginals add three contiguous term planes (see the module docstring);
    `terms` and `root_terms` are their (3, B K 3) views, from which the picks
    are taken along axis 1.  The stack holds no raw demand: every marginal,
    share and cost is read from `root`.  `first[b, k]` = 3 (b K + k) is
    where task k of row b has its L tier in the raveled (B, K, 3) marginals
    and in the columns of those views; its H and C tiers follow.  `tier`
    holds the tier code of each raveled entry, as `uint8`, and `barred[b, 0]`
    is row b's `_barred`.  `uniform`, the single-tier plans' pool sums
    (3, B, P), 0 under a tier the row's scheme bars, which give each row's
    initial prices and single-tier objectives, `paths`, the tasks' `_paths`,
    and `local`, the pool index as `_layout` gives it (each row's pools as 0
    to P - 1), are built with the stack for the start and the finish and are
    not kept by `take`; the loop sets `s0` and `floors`."""

    __slots__ = ("index", "local", "root", "capacity", "starts", "barred", "uniform", "paths", "s0", "floors",
                 "terms", "root_terms", "first", "tier", "clip", "bars")

    def __init__(self, problems):
        topologies, task_sets, _, schemes = zip(*problems)
        self.capacity, self.starts, self.local = _layout(topologies)
        self.index = self.local + np.arange(0, self.capacity.size, self.capacity.shape[1])[:, None, None]
        self.paths = _paths(topologies, task_sets)
        self.root = _roots(self.paths)
        barred = {scheme: _barred(scheme) for scheme in set(schemes)}
        self.barred = np.array([barred[scheme] for scheme in schemes])[:, None, :]
        # Each tier's terms add up, in task order, in its own copy of the pools.
        tier_pools = (self.index + self.capacity.size * np.arange(3)).ravel()
        uniform = np.bincount(tier_pools, weights=self.root.ravel(), minlength=3 * self.capacity.size)
        self.uniform = np.where(np.moveaxis(self.barred > 0, -1, 0), 0.0, uniform.reshape(3, *self.capacity.shape))
        rows, num_tasks = self.root.shape[1:3]
        self.first = np.arange(0, 3 * rows * num_tasks, 3).reshape(rows, num_tasks)
        self.tier = np.tile(np.arange(3, dtype=np.uint8), rows * num_tasks)
        self.clip = _SUBGRADIENT_CLIP * self.capacity
        self._views()

    def _views(self):
        self.terms, self.root_terms = self.index.reshape(3, -1), self.root.reshape(3, -1)
        self.bars = bool(self.barred.any())

    def take(self, keep: np.ndarray) -> "_Stack":
        """The stack of the given rows, in that order."""
        stack = object.__new__(_Stack)
        shift = (keep - np.arange(keep.size)) * self.capacity.shape[1]  # each kept row's pools move down
        stack.index = self.index[:, keep] - shift[:, None, None]
        stack.root, stack.starts = self.root[:, keep], self.starts
        stack.capacity, stack.s0, stack.floors, stack.clip, stack.barred = (
            array[keep] for array in (self.capacity, self.s0, self.floors, self.clip, self.barred)
        )
        # Row b's entries start at 3 b K in any stack of this shape.
        stack.first, stack.tier = self.first[: keep.size], self.tier[: 3 * keep.size * self.first.shape[1]]
        stack._views()
        return stack


class _Run:
    """One problem's bookkeeping in `_price_loop`, in plain Python: its
    position in the stream, the objective cache, the best plan, the stall
    clock, the stability window, and the trace, packed as 4 floats
    (candidate, best, dual value, violation) per iteration.  `stop` records
    how the problem stopped: its iteration count and whether it converged.
    `uniform` holds the objective of each single-tier plan, in L, H, C
    order."""

    __slots__ = ("index", "problem", "allowed", "cache", "best_obj", "best_codes", "since", "stable", "key",
                 "trace", "iterations", "converged")

    def __init__(self, index: int, problem, uniform: list[float]):
        self.index, self.problem = index, problem
        self.allowed = tuple(TIER_INDEX[t] for t in problem[3].allowed_tiers)
        # The price loop revisits assignments: score each distinct one once.
        # Keyed by the assignment's tier codes, one byte per task, which do
        # not depend on the problem's row in the stack.  At most max_iters
        # entries, dropped when the problem stops.
        self.cache: dict[bytes, float] | None = {}
        self.best_obj = math.inf
        self.best_codes = None
        self.since = self.stable = 0
        self.key = None
        self.trace = array("d")
        for code in self.allowed:
            if uniform[code] < self.best_obj:
                self.best_obj, self.best_codes = uniform[code], np.full(problem[1].num_tasks, code, dtype=np.int64)

    def stop(self, iterations: int, converged: bool = False):
        self.iterations, self.converged, self.cache = iterations, converged, None


def _price_loop(chunk, config: SolverConfig):
    """The price loop on (position, problem) pairs of problems of one shape,
    stacked (`_Stack`), yielding (position, plan) pairs once every problem
    has stopped (`_finish`).

    One gather of the prices gives every problem's marginals, one tier pick
    and one scatter give every pool load, and one step moves every price;
    the peak overloads, dual values and exact objectives are per-row
    reductions of the loop's kernels.  No row reads another, so each
    problem follows the iterates it would follow alone.  The bookkeeping is
    per problem (`_Run`), and a problem that stops leaves the stack; it is
    polished and re-allocated with all the others at the end.
    """
    first = stack = _Stack([problem for _, problem in chunk])
    # Prices, steps and floors are pool vectors, one row per problem, and
    # never leave the loop.
    prices = _initial_prices(stack)  # checked before any plan is scored
    stack.s0, stack.floors = _STEP_SCALE * prices / stack.capacity, _DUAL_FLOOR_SCALE * prices
    # Each allowed single-tier plan's objective, per row; a barred tier's
    # sums are 0, so it costs 0 and is never read.
    uniform = _cost(stack.uniform, stack.capacity).T.tolist()
    runs = [_Run(position, problem, costs) for (position, problem), costs in zip(chunk, uniform)]
    live = runs
    width = stack.first.shape[1]  # bytes per row of tier codes
    epsilon = config.epsilon
    prev = None

    # A price at its floor can make a share overflow to inf, and
    # `_price_step` clips the excess it feeds.
    with np.errstate(over="ignore"):
        for t in range(1, config.max_iters + 1):
            # One square root per pool price: every closed form below reads
            # square roots of demands and prices, never their product.
            task_roots = np.sqrt(prices).ravel().take(stack.index)
            marg = _marginals(stack.root, task_roots)
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

            roots = stack.root_terms.take(picked, axis=1)
            shares = roots / task_roots.reshape(3, -1).take(picked, axis=1)
            terms = stack.terms.take(picked, axis=1)
            loads = _pool_loads(terms, shares, prices.size).reshape(prices.shape)
            violation = _peak_overload(loads, stack.capacity).tolist()

            codes = stack.tier[picked]
            blob = codes.tobytes()
            exact = None
            stopped = []  # rows that stop, in row order
            for row, run in enumerate(live):
                key = blob[row * width : (row + 1) * width]
                value = run.cache.get(key)
                if value is None:
                    if exact is None:
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
                    run.stop(t, converged=True)
                    stopped.append(row)
                elif run.since >= _STALL_AFTER:
                    # Exploration has stalled: the winner-take-all
                    # iterates rarely settle on their own, because the
                    # relaxed optimum splits marginal tasks across tiers.
                    # That is a stop, not convergence.
                    run.stop(t)
                    stopped.append(row)

            prices = _price_step(prices, loads, t, stack.s0, stack.floors, stack.capacity, stack.clip)
            if stopped:
                # The last rows move into the stopped ones' places; a moved
                # problem keeps its cache and key, which name no row.
                order = list(range(len(live)))
                for row in reversed(stopped):
                    order[row] = order[-1]
                    order.pop()
                live = [live[row] for row in order]
                if not live:
                    break
                stack = stack.take(np.array(order))
                prices = prices[order]
                prev = stack.first + codes[order]

    for run in live:  # cut by max_iters
        run.stop(config.max_iters)
    yield from _finish(first, runs)


def _finish(stack: _Stack, runs: list):
    """Finish every problem of a `_price_loop` the same way, whatever
    stopped it, yielding (position, plan) pairs in row order: run b holds
    row b of `stack`, the loop's first stack.  All problems are polished by
    one lockstep `_local_search`, and their plans' total delays are added up
    as arrays (`_exact_totals`)."""
    member = _member(stack.local, stack.root, stack.capacity.shape[1])
    codes, objective = _local_search(np.array([run.best_codes for run in runs]), [run.best_obj for run in runs],
                                     [run.allowed for run in runs], member, stack.capacity)
    rates = np.array([run.problem[2] for run in runs], dtype=np.float64)
    totals = _exact_totals(stack, codes, rates).tolist()
    for run, plan_codes, best, total in zip(runs, codes, objective.tolist(), totals):
        yield run.index, _Plan(plan_codes, run.trace, run.iterations, run.converged, best, total)


def _exact_totals(stack: _Stack, codes: np.ndarray, rates: np.ndarray) -> np.ndarray:
    """The total delay of each row's plan (B,), for (B, K) tier codes and
    uplink rates, under the exact shares F_p sqrt(d) / W_p that `_shares`
    gives, as for `allocate_given_decision`.  Each task's access,
    fronthaul, midhaul and compute legs are added in that order, as
    `latency._legs` gives them, and the tasks in task order, so each total
    has the bits that `latency.total_delay` gives the same plan.  A share
    that is not strictly positive and finite is refused, as `Allocation`
    refuses it."""
    rows, num_tasks = codes.shape
    pick = (slice(None), np.arange(rows)[:, None], np.arange(num_tasks), codes)  # each task's tier, (3, B, K)
    index, root = stack.index[pick], stack.root[pick]
    _, shares = _shares(index, root, stack.capacity)
    bad = (root > 0) & ~((shares > 0) & (shares < math.inf))
    if bad.any():
        term, row, k = (axis[0] for axis in bad.nonzero())
        pool = stack.local[term, row, k, codes[row, k]]
        family = fields(Allocation)[np.searchsorted(stack.starts, pool, side="right") - 1].name
        raise ValueError(f"{family}[{k}] = {shares[term, row, k]} must be strictly positive and finite")
    bits, cycles, fronthaul_se, midhaul_se = stack.paths
    with np.errstate(divide="ignore", over="ignore"):
        # An unused leg's infinite share makes it exactly 0, as `_legs` has it.
        legs = np.where(rates <= 0, math.inf, bits / rates)  # `phy.access_delay`
        legs += bits / (shares[1] * fronthaul_se)
        legs += bits / (shares[2] * midhaul_se)
        legs += cycles / shares[0]
    return np.cumsum(legs, axis=-1)[..., -1]
