"""Offload planning by convex relaxation, solved by Frank-Wolfe.

Relaxing the 0/1 tier indicators and substituting indicator-weighted resource
shares turns every delay term into a perspective of a convex 1/share term.
Within one pool the optimal split of capacity F over demands d is
proportional to sqrt(d), so the relaxation is: minimize f(x) = sum_p
W_p(x)^2 / F_p over tier weights x, one simplex per task over its allowed
tiers, where W_p sums the pool's weighted square-root demands.  Its gradient
is `_marginals`, each tier's sum of 2 sqrt(d) sqrt(pi) over its pools at the
stationary prices pi = (W / F)^2.  The Lagrangian dual value at those prices
is a valid lower bound; there sum_p pi_p F_p = f, so it is the cheapest
allowed marginals summed minus f, and f minus it is the Frank-Wolfe gap:
every iterate certifies itself.

The loop (`_price_loop`) starts each task spread evenly over its allowed
tiers.  Per iteration, each task's forward tier is its cheapest allowed one
and its away tier the dearest it still holds weight on; each task's move
from the one to the other takes its own exact step (`_pair_steps`), the
problem steps along all the moves together by the exact line search of f
(`_line_step`; f is quadratic along a line), and then along the parallel
tangent through the iterate before (`_parallel_tangent`), which ends the
zig-zag between tasks whose moves shift nearly the same pool sums.  Weights
stay on their simplices and f never rises.  A problem converges once f -
(best dual value so far) <= epsilon f and stops unconverged at `max_iters`;
nothing else stops it and nothing is tuned.  The forward tiers form an
integer assignment, scored exactly; the best of those and of the
single-tier plans is the incumbent.  `converged` speaks of the relaxation,
`duality_gap` of the returned integer plan.

The pools are one vector everywhere, the capacity families of `latency`'s
model table in order, laid out by one builder, `_Stack`, for a stack of
problems of one shape; one problem is a one-row stack, `_Pools`.  Each task
and tier draws on at most three pools, one per leg the table gives the tier
(compute, fronthaul, midhaul), so the loop works on a pool-index array and
the matching square-root demands, stored term-major as (term, task, tier):
one gather of W / F gives every marginal, and one scatter the pool sums of
any weights or picked tiers, by which every integer plan is scored
(`_Stack.costs`) and allocated (`_Stack.allocate`).  Every closed form reads
sqrt(d): the pool cost (sum sqrt(d))^2 / F, the exact share F (sqrt(d) / W),
and at prices pi the stationary share and the marginal, so no expression
forms d pi or d / pi, which overflow at extreme but finite inputs where
their square roots do not; so too every quadratic form is a (b / F), as
W (W / F) for W^2 / F.  Raw demands appear only as the numerators of the
delay legs (`_paths`).  Term-major, the three terms of a marginal are three
contiguous planes added element by element (in the same order, so to the
same bits), and since every pool lies in one term plane, the scatter adds
each pool's members in task order.  `DualState` splits a pool vector of
prices into its five families only at the public boundary.  A pool none of a
scheme's tiers draws on gets no weight, so its sum and price stay 0.

Once a problem stops, its incumbent and its last iterate rounded (each task
on its heaviest tier) are polished by single- and pair-move descent
(`_local_search`), run in lockstep over the problems of one scheme, and the
better result is re-allocated exactly, so the returned plan is always
feasible.  The descent scores each single move in closed form from its own
pool entries and each pair from the two moves' pool shifts, and re-scores
exactly, by the same pick and scatter, only the near-best ones: a pair pass
costs O(K^2) time and holds O(K) pair scores per problem at a time.

`_solve_batch` takes a stream of problems, such as every sweep point x
realization x scheme of a worker's share of a sweep, and runs consecutive
problems of one shape (users, RUs, DUs) through one loop.  Problem b holds
row b of every stacked array, and its pools are entries b P to b P + P - 1 of
one stacked pool vector, so each gather, pick, step and scatter serves them
all, while the dual values, line searches and exact objectives reduce each
row on its own.  Incumbents and bounds are arrays over the stack; trace
entries, each iteration's best exact objective and dual value, are recorded
only where asked for, as `solve` asks for its batch of one.  A problem that
stops leaves the stack; when the last one stops, all are finished the same
way (`_finish`): one lockstep polish per scheme, and every plan's pool sums
and total delay added up as arrays, with the delay legs `latency` writes for
`total_delay`.  The loop yields compact plans (`_Plan`), so a sweep builds no
`Allocation`, `DualState` or trace dict; only `solve` turns its plan into a
`SolveResult` (`_result`), whose duals are the plan's own clearing prices.
No row reads another, so each problem gets the plan it gets alone; `solve` is
the batch of one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .latency import _FAMILIES, _NODES, _TIER_LEGS, TIER_INDEX, Allocation, Decision, _delay_legs, _paths
from .latency import _totals, total_delay
from .scenario import Scheme, TIERS, TaskSet, Topology

_CODE_L, _CODE_H, _CODE_C = (TIER_INDEX[t] for t in TIERS)
# Each tier's compute, fronthaul and midhaul family, (term, tier), as its
# position in `latency._FAMILIES` (-1: no such leg).  In the layout an unused
# term reads its plane's one family, so every pool lies in one term plane.
_LEGS = np.array([[-1 if f is None else _FAMILIES.index(f) for f in _TIER_LEGS[tier]] for tier in TIERS]).T
_USED = _LEGS >= 0
_LEG_FAMILIES = np.where(_USED, _LEGS, _LEGS.max(axis=1, keepdims=True))
# The node map each (term, tier) family reads, as its row in `_layout`'s
# node rows: `latency._NODES` in order, then zeros for a network-wide pool.
_LEG_NODES = np.array([_NODES.index(f.node) if f.node else len(_NODES) for f in _FAMILIES])[_LEG_FAMILIES]

# Relative width of the band of closed-form move scores that the polish
# re-scores exactly.  Their rounding error is near 1e-15 of the objective, so
# the band holds every move whose exact score could be the best.
_RECHECK_BAND = 1e-9
# First moves whose pair scores the polish holds at once.
_PAIR_BLOCK_ROWS = 64

# Most tasks one stacked price loop holds; a longer run of problems of one
# shape goes through consecutive loops, which changes no result.  The stacked
# arrays and the polish's pair shifts grow with the loop: 400 streamed K=100
# problems peak at 56 MB RSS in loops of 40 and at 174 MB in one loop (30 MB
# after imports), in about the same time.
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
    """Stopping rule of the Frank-Wolfe loop: a problem converges once its
    relaxed objective f is within `epsilon` of its best dual value, f -
    best dual <= epsilon f, and stops unconverged after `max_iters`
    iterations.  Nothing else in the loop is tunable: every step is an
    exact line search."""

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
    terms back in.  `trace` holds per-iteration arrays: dual_value_s, the
    dual value at the iterate, and best_objective_s, the exact cost of the
    best integer plan found so far."""

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


class _Stack:
    """The pool layout of problems of one shape, one row per problem, and
    its one builder: row b's pools are entries b P to b P + P - 1 of one
    pool vector, each row's in the module docstring's order.

    `capacity` (B, P) holds the capacities and `starts` each family's first
    pool.  Term-major, (3, B, K, 3) for (term, problem, task, tier), `index`
    names each term's pool in the stacked vector, `local` the same pool as
    `_layout` gives it (0 to P - 1), and `root` the square root of the
    demand on it (0 for a term the tier does not use); `terms` and
    `root_terms` are their (3, B K 3) views, picked along axis 1.
    `first[b, k]` = 3 (b K + k) is where task k of row b has its L tier in
    the raveled (B, K, 3) marginals and in those views, so `first + codes`
    picks an integer assignment.  `barred[b, 0]` is row b's `_barred`.
    `paths`, the tasks' `_paths` (B, K), and `local` serve the finish and
    `allocate`; a `take` keeps neither."""

    __slots__ = ("index", "local", "root", "capacity", "starts", "barred", "paths", "terms", "root_terms", "first",
                 "bars")

    def __init__(self, problems):
        # Problems that share their topology and tasks, as a sweep's schemes
        # do, share their layout: it is laid out once and repeated.
        shared, rows = {}, []
        for topology, tasks, _, _ in problems:
            rows.append(shared.setdefault((id(topology), id(tasks)), (len(shared), topology, tasks))[0])
        _, topologies, task_sets = zip(*shared.values())
        self.capacity, self.starts, self.local = _layout(topologies)
        self.paths = tuple(np.array(leg) for leg in zip(*map(_paths, topologies, task_sets)))
        self.root = _roots(self.paths)
        if len(shared) < len(rows):
            self.capacity, self.local, self.root = (array.take(rows, axis=axis) for array, axis in
                                                    ((self.capacity, 0), (self.local, 1), (self.root, 1)))
            self.paths = tuple(leg.take(rows, axis=0) for leg in self.paths)
        self.index = self.local + np.arange(0, self.capacity.size, self.capacity.shape[1])[:, None, None]
        schemes = [scheme for _, _, _, scheme in problems]
        barred = {scheme: _barred(scheme) for scheme in set(schemes)}
        self.barred = np.array([barred[scheme] for scheme in schemes])[:, None, :]
        self._views()

    def _views(self):
        self.terms, self.root_terms = self.index.reshape(3, -1), self.root.reshape(3, -1)
        self.first = np.arange(0, self.root_terms.shape[1], 3).reshape(self.root.shape[1:3])
        self.bars = bool(self.barred.any())

    def take(self, keep: np.ndarray) -> "_Stack":
        """The stack of the given rows, in that order."""
        stack = object.__new__(_Stack)
        stack.index = self.index.take(keep, axis=1)
        # Each kept row's pools move down to its new place in the vector.
        stack.index -= ((keep - np.arange(keep.size)) * self.capacity.shape[1])[:, None, None]
        stack.root, stack.starts = self.root.take(keep, axis=1), self.starts
        stack.capacity, stack.barred = self.capacity.take(keep, axis=0), self.barred.take(keep, axis=0)
        stack._views()
        return stack

    def moves(self, ahead: np.ndarray, away: np.ndarray):
        """The pool entries of moves of a task from (task, tier) entry `away`
        to `ahead`, named as by `first`: the pools it joins (3, ...), the one
        it leaves on plane 0 (on planes 1 and 2 every tier reads the task's
        own RU and DU pools), and the square-root demands added and removed."""
        return (self.terms.take(ahead, axis=1), self.terms[0].take(away), self.root_terms.take(ahead, axis=1),
                self.root_terms.take(away, axis=1))

    def loads(self, weights: np.ndarray) -> np.ndarray:
        """Pool sums (B, P) of the square-root demands weighted by each
        row's tier weights (B, K, 3)."""
        return _pool_loads(self.index, self.root * weights, self.capacity.size).reshape(self.capacity.shape)

    def picked_loads(self, picked: np.ndarray, sign=None, rows=None) -> np.ndarray:
        """Pool sums (..., B, P) of the square-root demands of the (task,
        tier) entries each row of `picked` (..., B, K) names, each times
        `sign` (..., B, K) if given.  Each leading index is a plan of its
        own, added up in its own copy of the pool vector.  With `rows` (A,),
        the rows of `picked` (..., A, K) name entries of those rows of the
        stack, repeats allowed, and the sums (..., A, P) are those of
        `take(rows)`."""
        root = self.root_terms.take(picked, axis=1)
        if sign is not None:
            root = root * sign
        index, plans, size = self.terms.take(picked, axis=1), picked.shape[:-2], self.capacity.size
        if rows is not None:  # row rows[a]'s pools become the a-th block of P
            width = self.capacity.shape[1]
            index += ((np.arange(rows.size) - rows) * width)[:, None]
            size = rows.size * width
        if plans:
            index = index + size * np.arange(math.prod(plans)).reshape(plans + (1, 1))
            size *= math.prod(plans)
        return _pool_loads(index, root, size).reshape(picked.shape[:-1] + (-1,))

    def costs(self, codes: np.ndarray) -> np.ndarray:
        """The exact offload cost (..., B) of each row's integer assignment,
        tier codes (..., B, K): `_cost` of its `picked_loads`."""
        return _cost(self.picked_loads(self.first + codes), self.capacity)

    def allocate(self, codes: np.ndarray):
        """Each row's integer assignment, tier codes (B, K), allocated
        exactly: each task's terms' pools as `local` names them (3, B, K),
        their square-root demands, and `_shares`' pool sums and shares."""
        picked = self.first + codes
        root = self.root_terms.take(picked, axis=1)
        sums, shares = _shares(self.terms.take(picked, axis=1), root, self.capacity)
        return self.local.reshape(3, -1).take(picked, axis=1), root, sums, shares


class _Pools(_Stack):
    """One problem as a `_Stack` of one row, every tier priced.
    `objective`, the scorer perfbench's tracer counts by subclassing this
    class under this name in `fogplan.oracle`, scores a (K,) plan of tier
    codes on the row, as `costs` does."""

    def __init__(self, tasks: TaskSet, topology: Topology):
        super().__init__([(topology, tasks, None, Scheme.FOG)])

    def objective(self, codes: np.ndarray) -> float:
        """Minimal offload cost (access excluded) for an integer assignment."""
        return float(self.costs(codes)[0])


def _layout(topologies):
    """The pool vectors of topologies of one shape, stacked: capacities
    (B, P), the index of each family's first pool, and the pool index of each
    (term, problem, task, tier), term-major (3, B, K, 3), 0 to P - 1: the
    task's pool in the family `_LEG_FAMILIES` names for the term and tier,
    one gather of the users' nodes (`_LEG_NODES`) plus that family's start."""
    rows, users = len(topologies), topologies[0].num_users
    starts = _family_starts(topologies[0])
    capacity = np.concatenate([getattr(t, family.capacity) if family.node else (getattr(t, family.capacity),)
                               for t in topologies for family in _FAMILIES]).reshape(rows, -1)
    nodes = np.zeros((len(_NODES) + 1, rows, users), dtype=np.int64)
    nodes[:-1] = [[getattr(t, node) for t in topologies] for node in _NODES]
    index = np.empty((3, rows, users, 3), dtype=np.int64)
    np.add(nodes[_LEG_NODES].transpose(0, 2, 3, 1), starts[_LEG_FAMILIES][:, None, None, :], out=index)
    return capacity, starts, index


def _family_starts(topology: Topology) -> np.ndarray:
    """The index of each pool family's first pool in a pool vector of the
    topology's shape, families in `latency._FAMILIES` order."""
    sizes = [getattr(topology, family.capacity).size if family.node else 1 for family in _FAMILIES[:-1]]
    return np.array(list(itertools.accumulate(sizes, initial=0)))


def _roots(paths) -> np.ndarray:
    """Square roots of the demands, laid out like `_layout`'s index,
    (3, B, K, 3), from the tasks' `_paths`: compute cycles, then fronthaul
    and midhaul Hz-seconds (bits over spectral efficiency); 0 for a term the
    tier does not use (`_USED`)."""
    bits, cycles, fronthaul_se, midhaul_se = paths
    demand = np.sqrt((cycles, bits / fronthaul_se, bits / midhaul_se))
    return np.where(_USED[:, None, None, :], demand[..., None], 0.0)


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
    # The (pool, sqrt demand, share) of each term of each task's tier, (3, 1,
    # K), read on the one row: each map lies in one term plane, so each map
    # fills in task order.
    index, root, _, share = pools.allocate(decision.codes)
    term, _, k = np.nonzero(root)
    family = np.searchsorted(pools.starts, index[term, 0, k], side="right") - 1
    maps: list[dict] = [{} for _ in _FAMILIES]
    for task, f, value in zip(k.tolist(), family.tolist(), share[term, 0, k].tolist()):
        maps[f][task] = value
    return Allocation(**{f.share: shares for f, shares in zip(_FAMILIES, maps)})


def _shares(index: np.ndarray, root: np.ndarray, capacity: np.ndarray):
    """Pool sums W of sqrt demands and the exact shares F_p (sqrt(d) / W_p),
    for term-major picked terms whose pool `index` names entries of the flat
    `capacity` and whose square-root demands are `root`.  Each pool lies in
    one term plane, so each W_p adds its members in task order.  A member's
    fraction sqrt(d) / W_p is at most 1, so its share is at most F_p and
    finite; F_p sqrt(d) would overflow first at extreme but finite inputs.
    A term with zero demand gets an infinite share, so that its delay
    d / share is 0."""
    loads = _pool_loads(index, root, capacity.size)
    fraction = np.divide(root, loads[index], out=np.full(root.shape, math.inf), where=root > 0)
    share = np.multiply(capacity.ravel()[index], fraction, out=fraction, where=root > 0)
    return loads, share


def _check_prices(stack: _Stack, loads: np.ndarray) -> None:
    """Refuse a problem whose starting prices are not usable: the
    stationary prices (W / F)^2 of the pool sums W of the loop's first
    iterate, which spreads each task evenly over its allowed tiers, must be
    finite, and positive wherever an allowed tier reads them.  A pool that
    none of a scheme's tiers draws on, or that no task reads at all (an RU
    without users), is empty and priced 0.  Of several problems, the first
    one that fails names the failure."""
    with np.errstate(over="ignore"):  # an overflow is reported below
        prices = (loads / stack.capacity) ** 2
    finite = np.isfinite(prices)
    positive = (prices.ravel()[stack.index] > 0) | (stack.root == 0) | (stack.barred > 0)
    if not (finite.all() and positive.all()):
        overflow = ~finite.all(axis=1)  # per problem
        underflow = ~np.moveaxis(positive, 0, -2).reshape(overflow.size, -1).all(axis=1)
        if overflow[np.flatnonzero(overflow | underflow)[0]]:
            raise ValueError("initial prices overflow: a pool's capacity is too small for its demand")
        raise ValueError("initial prices underflow: a pool's capacity is too large for its demand")


def _single_tier_costs(stack: _Stack) -> np.ndarray:
    """The exact cost (B, 3) of each row's single-tier plans.  A barred
    tier costs +inf unscored (its pools may hold any capacity): the row's
    first allowed tier is scored in its place.  A problem whose allowed
    plans' costs sum to an overflow is refused.  Every tier drawing on a
    pool draws the same demand, so no weights of the scheme load a pool
    beyond some single-tier plan: the sum bounds every cost the loop reads."""
    barred = stack.barred[:, 0].T  # (3, B)
    tiers = np.where(barred > 0, barred.argmin(axis=0), np.arange(3)[:, None])
    with np.errstate(over="ignore"):  # an overflow is refused below
        costs = stack.costs(tiers[..., None])
        bound = np.add.reduce(np.where(barred > 0, 0.0, costs), axis=0)
    if not np.isfinite(bound).all():
        raise ValueError("single-tier plan costs overflow: a pool's capacity is too small for its demand")
    return (costs + barred).T


def _stationary_shares(duals: DualState, x, tasks: TaskSet, topology: Topology, terms) -> tuple[np.ndarray, ...]:
    """Share = weight times sqrt(demand) / sqrt(price) for each (tier, term)
    of the pool layout in `terms`, zero wherever the tier weight is zero;
    only those shares' prices must be strictly positive."""
    x = np.asarray(x, dtype=np.float64)
    pools = _Pools(tasks, topology)
    prices = _price_vector(duals, topology)[pools.index[:, 0]]
    shares = []
    for tier, term in terms:
        weight, price = x[:, tier], prices[term, :, tier]
        mask = weight > 0
        if np.any(price[mask] <= 0):
            pool = pools.index[term, 0, 0, tier]
            family = fields(DualState)[np.searchsorted(pools.starts, pool, side="right") - 1].name
            raise ValueError(f"{family} must be strictly positive wherever the matching tier weight is")
        share = np.zeros_like(weight)
        share[mask] = weight[mask] * (pools.root[term, 0, mask, tier] / np.sqrt(price[mask]))
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


def _marginals(twice_root: np.ndarray, root_prices: np.ndarray) -> np.ndarray:
    """Per-task tier prices, (..., K, 3) in L, H, C order, from term-major
    doubled square roots of demands, 2 sqrt(demand), and square roots of
    prices (3, ..., K, 3): 2 sqrt(demand) sqrt(price) summed over the
    compute, fronthaul and midhaul terms, in that order.  The terms are the
    leading axis, so the sum adds three contiguous blocks element by element
    instead of reducing a length-3 innermost axis."""
    return np.add.reduce(twice_root * root_prices, axis=0)


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


def _cost(loads: np.ndarray, capacity: np.ndarray):
    """sum_p W_p^2 / F_p over the pools of each vector of pool sums W of sqrt
    demands (last axis): the exact offload cost of an integer assignment.
    Each term is W_p (W_p / F_p), finite wherever the cost is: W_p^2 is not."""
    return np.add.reduce(loads * (loads / capacity), axis=-1)


def _local_search(codes: np.ndarray, objective, tiers, stack: _Stack):
    """Deterministic best-improvement descent over tier changes, run in
    lockstep on a stack of problems of one scheme, one row each.

    `codes` (F, K) holds each problem's assignment, `objective` (F,) its
    exact cost and `tiers` the tier codes the scheme allows, in L, H, C
    order.  Returns the descended codes and their exact costs as new arrays.
    At each step every problem still descending takes its best single-task
    move, else its best coordinated two-task move (which captures exchange
    improvements single moves cannot reach), else it is done; a scheme with
    one tier has no move.  Every neighbour, each task moving to each other
    tier, is scored in closed form from the current pool sums: a single
    move from its own pool entries (`_move_changes`), a pair from the two
    moves' pool shifts (`_pair_blocks`).  Those scores round differently
    from the exact objective, so each problem re-scores the moves within
    _RECHECK_BAND of its best exactly, by the stack's pick and scatter, and
    takes the first in enumeration order (task, then tier) of least exact
    objective if that is strictly below the incumbent's: the moves exact
    re-scoring of every neighbour would take.  Its returned objective is
    always an exact value, and no problem reads another's numbers."""
    codes, objective = codes.copy(), np.array(objective, dtype=np.float64)
    slots = len(tiers) - 1  # moves per task
    if not slots:
        return codes, objective
    # others[c]: the scheme's tiers other than c (a code of the scheme), in order.
    others = np.array([[t for t in tiers if t != c][:slots] for c in range(3)])
    move_task = np.repeat(np.arange(codes.shape[1]), slots)
    m = move_task.size
    live = np.arange(codes.shape[0])  # the problems still descending, the rows of `stack`
    loads = stack.picked_loads(stack.first + codes)
    while live.size:
        current = codes.take(live, axis=0)
        move_code = others.take(current, axis=0).reshape(live.size, m)
        ahead, away = stack.first.take(move_task, axis=1) + move_code, (stack.first + current).take(move_task, axis=1)
        single = _move_changes(stack, loads, ahead, away)

        def improve(at, moves):
            """Re-score exactly problem live[at] with its row of `moves` (move
            indices) applied; take `_recheck`'s picks and their pool sums and
            return the positions in `live` of the problems that moved."""
            trial = current.take(at, axis=0)
            trial[np.arange(at.size)[:, None], move_task[moves]] = move_code[at[:, None], moves]
            trial_loads = stack.picked_loads(stack.first.take(at, axis=0) + trial, rows=at)
            values = _cost(trial_loads, stack.capacity.take(at, axis=0))
            picked = _recheck(at, values, objective[live[at]])
            rows = at[picked]
            codes[live[rows]], objective[live[rows]], loads[rows] = trial[picked], values[picked], trial_loads[picked]
            return rows

        at, index = _near_best([(0, single)], objective[live])
        moved = improve(at, index[:, None]) if at.size else at
        if moved.size < live.size:
            rest = (np.bincount(moved, minlength=live.size) == 0).nonzero()[0]
            # The pair pass of the problems with no improving single move,
            # from each move's pool shifts: one scatter of its two entries.
            blocks = _pair_blocks(stack, single.take(rest, axis=0), ahead.take(rest, axis=0), away.take(rest, axis=0),
                                  move_task, rest)
            at, index = _near_best(blocks, objective[live[rest]])
            if at.size:
                moved = np.concatenate((moved, improve(rest[at], np.stack(np.divmod(index, m), axis=1))))
            if moved.size < live.size:  # some problems are done
                moved.sort()
                live, loads, stack = live[moved], loads.take(moved, axis=0), stack.take(moved) if moved.size else stack
    return codes, objective


def _move_changes(stack: _Stack, loads: np.ndarray, ahead: np.ndarray, away: np.ndarray) -> np.ndarray:
    """The change in f = sum_p W_p^2 / F_p at pool sums `loads` (B, P) of
    each move (B, N) of a task from (task, tier) entry `away` to another
    tier's `ahead`, from its pool entries (`_Stack.moves`): b (2 W + b) / F
    on each pool it shifts by b, two on plane 0 and one on each of 1 and 2."""
    into, left, added, removed = stack.moves(ahead, away)
    twice, capacity = 2.0 * loads.ravel(), stack.capacity.ravel()
    inward, room, shift = twice.take(into), capacity.take(into), added[1:] - removed[1:]
    change = added[0] * ((inward[0] + added[0]) / room[0])
    change -= removed[0] * ((twice.take(left) - removed[0]) / capacity.take(left))
    shared = shift * ((inward[1:] + shift) / room[1:])
    return change + shared[0] + shared[1]


def _pair_blocks(stack: _Stack, single: np.ndarray, ahead: np.ndarray, away: np.ndarray, move_task: np.ndarray,
                 problems=None):
    """The change in f of each pair of moves of two tasks, k1 < k2 (+inf
    elsewhere), as (offset, (B, rows x N) block) pairs of _PAIR_BLOCK_ROWS
    first moves each, for `_near_best`: the moves' `single` changes (B, N)
    plus 2 sum_p d1_p d2_p / F_p over their pool shifts d, each a scatter of
    the move's entries `ahead` and `away` signed +1 and -1.  With
    `problems`, the B rows are those rows of the stack.  All blocks share
    two buffers, so each holds only until the generator advances and
    `_near_best` copies what it keeps."""
    rows, m = single.shape
    moves = np.stack((ahead, away), axis=-1).transpose(1, 0, 2)
    shift = stack.picked_loads(moves, np.array([1.0, -1.0]), problems)  # (N, B, P)
    capacity = stack.capacity if problems is None else stack.capacity.take(problems, axis=0)
    scaled, turned = (shift / capacity).transpose(1, 0, 2), shift.transpose(1, 2, 0)
    space = np.empty((2, rows * min(m, _PAIR_BLOCK_ROWS) * m))
    for start in range(0, m, _PAIR_BLOCK_ROWS):
        block_rows, size = slice(start, start + _PAIR_BLOCK_ROWS), min(_PAIR_BLOCK_ROWS, m - start)
        block, product = space[:, : rows * size * m].reshape(2, rows, size, m)
        np.add(single[:, block_rows, None], single[:, None, :], out=block)
        np.matmul(scaled[:, block_rows], turned, out=product)
        product *= 2.0
        block += product
        np.copyto(block, np.inf, where=move_task[block_rows, None] >= move_task)
        yield start * m, block.reshape(rows, -1)


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
    codes, the trace as one (iterations, 2) array of (best objective, dual
    value) rows (None where the loop recorded none), the iteration count,
    whether the loop converged (its relaxed gap closed to epsilon), the
    plan's exact objective, the total delay of its exact re-allocation,
    access included, and its clearing prices (W_p / F_p)^2 as one pool
    vector, from the pool sums W of its picked square-root demands.
    `_result` makes it a `SolveResult` from a traced plan."""

    codes: np.ndarray
    trace: np.ndarray | None
    iterations: int
    converged: bool
    objective_s: float
    total_delay_s: float
    prices: np.ndarray


def _result(plan: _Plan, problem) -> SolveResult:
    """The `SolveResult` of a plan of a (topology, tasks, rates_bps, scheme)
    problem.  The allocation and total delay come from the public
    `allocate_given_decision` and `total_delay`, so that a tracer wrapping
    them sees them under `solve`; they give the plan's own shares and total
    bit for bit.  The duals are the plan's clearing prices: at them every
    stationary share is the plan's exact share, and a pool the plan does not
    load is slack, so its multiplier is 0."""
    topology, tasks, rates_bps, _ = problem
    decision = Decision(tuple(TIERS[c] for c in plan.codes.tolist()))
    allocation = allocate_given_decision(decision, tasks, topology)
    best, dual = plan.trace.T.copy()
    best_dual = dual.max() if dual.size else 0.0
    best_obj = plan.objective_s
    gap = max(0.0, (best_obj - best_dual) / best_obj) if best_obj > 0 else 0.0
    return SolveResult(
        decision=decision,
        allocation=allocation,
        duals=_dual_state(plan.prices, _family_starts(topology)),
        iterations=plan.iterations,
        converged=plan.converged,
        objective_s=best_obj,
        total_delay_s=total_delay(topology, tasks, decision, allocation, rates_bps),
        best_dual_value_s=float(best_dual),
        duality_gap=float(gap),
        trace={"dual_value_s": dual, "best_objective_s": best},
    )


def solve(
    topology: Topology,
    tasks: TaskSet,
    rates_bps,
    scheme: Scheme,
    config: SolverConfig | None = None,
) -> SolveResult:
    """Plan tier assignments and resource shares for one scenario.

    Runs Frank-Wolfe on the convex relaxation, exactly evaluates the integer
    assignment of every iteration's forward tiers (plus the uniform
    single-tier assignments as baselines) and keeps the best; polishes it and
    the rounded last iterate by local descent over single and paired tier
    changes, keeps the better, and re-allocates it exactly.  Deterministic:
    identical inputs and config give identical outputs.  `converged` means
    the relaxed Frank-Wolfe gap closed: the relaxed objective came within
    epsilon (relative) of the best dual value before max_iters.
    `duality_gap` is the certificate of the returned integer plan, (objective
    - best dual value) / objective; at desk scale the relaxation's own
    integrality gap keeps it well above epsilon even when the loop
    converged.  Whatever stopped the loop, the plan is returned with its own
    clearing prices as the duals.  This is `_solve_batch` on a batch of one,
    whose plan `_result` turns into the returned `SolveResult`.
    """
    problem = (topology, tasks, rates_bps, scheme)
    [(_, plan)] = _solve_batch([problem], config, trace=True)
    return _result(plan, problem)


def _solve_batch(problems, config: SolverConfig | None = None, trace: bool = False):
    """`solve` on each (topology, tasks, rates_bps, scheme) problem of an
    iterable, yielding (position, `_Plan`) pairs.

    The problems are drawn lazily.  Consecutive problems with the same number
    of users, RUs and DUs run through one `_price_loop`, at most _BATCH_TASKS
    tasks of them at a time, and that loop's plans are yielded together
    when its last problem stops; an empty task set needs no loop, is yielded
    at once and does not split a run.  No problem reads another's numbers,
    so each plan is the one `solve` gives for that problem alone.  A plan
    carries its total delay but no `Allocation` or `DualState`, and its
    trace only with `trace`: `_result` builds a `SolveResult` from a traced
    plan.
    """
    config = config or SolverConfig()
    chunk: list = []  # (position, problem) pairs of the next loop
    shape = size = None
    checked = None  # the last (topology, tasks, rates) checked, which a sweep's schemes share
    for position, problem in enumerate(problems):
        topology, tasks, rates, _ = problem
        if checked is None or not (topology is checked[0] and tasks is checked[1] and rates is checked[2]):
            num_tasks = tasks.num_tasks
            if num_tasks and num_tasks != topology.num_users:
                raise ValueError("tasks and topology disagree on the number of users")
            if num_tasks and np.shape(rates) != (num_tasks,):
                raise ValueError("rates must hold one entry per task")
            checked, key = problem, (num_tasks, topology.num_rus, topology.num_dus)
        if not num_tasks:
            prices = np.zeros(_layout([topology])[0].size)
            yield position, _Plan(np.zeros(0, dtype=np.int64), np.zeros((0, 2)), 0, True, 0.0, 0.0, prices)
            continue
        if key != shape or len(chunk) == size:
            if chunk:
                yield from _price_loop(chunk, config, trace=trace)
            chunk, shape, size = [], key, max(1, _BATCH_TASKS // num_tasks)
        chunk.append((position, problem))
    if chunk:
        yield from _price_loop(chunk, config, trace=trace)


def _uniform_weights(stack: "_Stack") -> np.ndarray:
    """The first iterate (B, K, 3): each task's weight spread evenly over
    its row's allowed tiers, so every pool an allowed tier draws on is
    loaded."""
    weights = np.where(stack.barred > 0, 0.0, 1.0)
    return np.repeat(weights / weights.sum(axis=-1, keepdims=True), stack.first.shape[1], axis=1)


def _line_step(loads: np.ndarray, change: np.ndarray, capacity: np.ndarray, limit) -> np.ndarray:
    """The exact line search of each row (last axis) of f = sum_p W_p^2 /
    F_p along the pool-sum direction `change`: the minimizer of
    f(W + gamma dW), -sum W dW / F over sum dW^2 / F, clipped to [0, limit].
    A row that does not move (dW = 0) steps 0."""
    scaled = change / capacity
    curvature = np.add.reduce(change * scaled, axis=-1)
    slope = np.add.reduce(loads * scaled, axis=-1)
    moves = curvature > 0
    step = np.divide(-slope, curvature, out=np.zeros(slope.shape), where=moves)
    return np.minimum(np.maximum(step, 0.0), limit, out=step, where=moves)


def _pair_steps(stack: "_Stack", marg: np.ndarray, cheapest: np.ndarray, weights: np.ndarray, moves: np.ndarray,
                index: np.ndarray, root: np.ndarray):
    """Each task's own exact pairwise step (B, K): the weight that minimizes
    f = sum_p W_p^2 / F_p when only that task moves weight from its away
    tier to its forward tier, at most all it holds there.  `moves` (B, 2 K)
    names each task's forward, then each task's away (task, tier) entry, as
    `_Stack.first` does, and `index` and `root` (3, B, 2 K) are their pool
    entries, picked from `_Stack.terms` and `root_terms`; `marg` (B, K, 3)
    are the marginals at the pool sums W, `cheapest` (B, K) those of the
    forward entries and `weights` (B, K, 3) the tier weights.  The move
    shifts W by the forward tier's square-root demands minus the away
    tier's, so f changes by its slope, half the difference of the two
    marginals, times the step, plus its curvature, sum over the moved terms
    of their squared shift over F, times the step squared.  On plane 0 each
    tier draws on a pool of its own family, so the move adds to one pool and
    takes from another; planes 1 and 2 shift one pool each (on them every
    tier reads the task's own RU and DU pools).  A task whose forward tier
    is its away tier gains 0 and steps 0."""
    k = moves.shape[1] // 2
    away = moves[:, k:]
    gain = marg.reshape(-1).take(away) - cheapest  # >= 0: the forward tier is the cheapest
    room = stack.capacity.ravel().take(index)
    shift = root[1:, :, :k] - root[1:, :, k:]
    shared = shift * (shift / room[1:, :, :k])
    apart = root[0] * (root[0] / room[0])  # the forward then the away tier's plane-0 terms
    curvature = apart[:, :k] + apart[:, k:] + shared[0] + shared[1]
    step = np.divide(gain, 2.0 * curvature, out=np.zeros(gain.shape), where=curvature > 0)
    return np.minimum(step, weights.reshape(-1).take(away))


def _parallel_tangent(weights, loads, before, before_loads, capacity) -> np.ndarray:
    """The iterate reached from `weights` (B, K, 3), with pool sums `loads`
    (B, P), by the exact line search along the parallel tangent, the
    direction from the iterate `before` (with pool sums `before_loads`) the
    last step started from, as far as every weight stays non-negative.
    Where steps zig-zag across a narrow valley of f, as they do between
    tasks whose moves shift nearly the same pool sums, the tangent runs
    along the valley (Shah, Buehler & Kempthorne 1964)."""
    direction = weights - before
    # The least weight / -direction over the falling weights, as minus the
    # greatest weight / direction: IEEE division is odd in its divisor.  Each
    # row's quotients fill one column of a (3 K, B) buffer, so the max runs
    # down the columns; it is exact, so the order does not matter.
    fall = np.full(weights.shape[::-1], -math.inf)
    np.divide(weights, direction, out=fall.T, where=direction < 0)
    limit = -np.maximum.reduce(fall.reshape(-1, weights.shape[0]), axis=0)
    limit[np.isinf(limit)] = 0.0  # no weight falls: the two iterates coincide
    step = _line_step(loads, loads - before_loads, capacity, limit)
    return np.maximum(weights + step[:, None, None] * direction, 0.0)


def _price_loop(chunk, config: SolverConfig, trace: bool = False):
    """Frank-Wolfe on the relaxation of (position, problem) pairs of
    problems of one shape, stacked (`_Stack`), yielding (position, plan)
    pairs once every problem has stopped (`_finish`).

    Each problem's iterate is a (K, 3) array of tier weights, one simplex
    per task over its allowed tiers, that starts at the uniform weights.
    One gather of the pool sums' ratios W / F gives every problem's gradient
    (its marginals); the row argmin of the allowed marginals is each task's
    forward tier and, of the tiers a task still holds weight on, the one of
    highest marginal its away tier.  The pool entries of both are picked
    once per iteration and serve the forward vertex's exact score, each
    task's own exact pairwise step (`_pair_steps`) and the pool-sum
    direction of the row's exact line search along all of its tasks' moves
    together (`_line_step`); from there the row steps along the parallel
    tangent (`_parallel_tangent`).  No row reads another, so each problem
    follows the iterates it would follow alone.  A problem stops, converged,
    once its relaxed objective is within epsilon of its best dual value, or
    at max_iters, and leaves the stack; it is polished and re-allocated with
    all the others at the end.  Only with `trace` are the per-iteration
    entries of `_Plan.trace` recorded.
    """
    first = stack = _Stack([problem for _, problem in chunk])
    rows, num_tasks = stack.first.shape
    tiers = {scheme: tuple(TIER_INDEX[t] for t in scheme.allowed_tiers) for scheme in {p[3] for _, p in chunk}}
    allowed = [tiers[problem[3]] for _, problem in chunk]
    weights = _uniform_weights(stack)
    loads = stack.loads(weights)
    _check_prices(stack, loads)  # before any plan is scored
    # The best single-tier plan is the first incumbent, the first in L, H, C
    # order of those that cost the least.
    single = _single_tier_costs(stack)
    incumbent = np.repeat(single.argmin(axis=1)[:, None], num_tasks, axis=1)
    best = single.min(axis=1)
    bound = np.full(rows, -math.inf)  # each live row's best dual value so far
    # Of the loop's own arrays, the live rows': the doubled square-root
    # demands of the marginals, the barred tiers per task, and each task's
    # L entry twice, for its forward and its away move.
    twice = 2.0 * stack.root
    barred = np.repeat(stack.barred, num_tasks, axis=1) if stack.bars else None
    pairs = np.concatenate((stack.first, stack.first), axis=1)
    # Per row of `first`, filled as rows stop.
    best_codes, rounded = np.empty_like(incumbent), np.empty_like(incumbent)
    objective = np.empty(rows)
    iterations, converged = np.full(rows, config.max_iters), np.zeros(rows, dtype=bool)
    alive = np.arange(rows)  # each stacked row's row in `first`
    log = [] if trace else None  # per iteration: (rows in `first`, (A, 2) trace entries)
    before = None  # the previous iterate's weights and pool sums

    for t in range(1, config.max_iters + 1):
        ratio = loads / stack.capacity  # square roots of the stationary prices
        marg = _marginals(twice, ratio.ravel().take(stack.index))
        allowed_marg = marg if barred is None else _allowed_marginals(marg, barred)
        forward = allowed_marg.argmin(axis=-1)
        moves = np.concatenate((forward, np.where(weights > 0, marg, -math.inf).argmax(axis=-1)), axis=1)
        moves += pairs  # each task's forward, then each task's away (task, tier) entry
        picked = moves[:, :num_tasks]
        index, root = stack.terms.take(moves, axis=1), stack.root_terms.take(moves, axis=1)
        # At the stationary prices pi = (W / F)^2, sum_p pi_p F_p = f: the
        # dual value is the cheapest allowed marginals summed minus f.
        relaxed = _cost(loads, stack.capacity)
        cheapest = allowed_marg.ravel().take(picked)
        dual = np.add.reduce(cheapest, axis=-1) - relaxed

        # The forward vertex is an integer assignment: score it exactly.
        candidate_loads = _pool_loads(index[:, :, :num_tasks], root[:, :, :num_tasks], stack.capacity.size)
        candidate = _cost(candidate_loads.reshape(stack.capacity.shape), stack.capacity)
        better = candidate < best
        np.copyto(best, candidate, where=better)
        np.copyto(incumbent, forward, where=better[:, None])
        np.maximum(bound, dual, out=bound)
        if log is not None:
            log.append((alive, np.stack((best, dual), axis=1)))
        done = relaxed - bound <= config.epsilon * relaxed

        step = _pair_steps(stack, marg, cheapest, weights, moves, index, root)
        signed = np.concatenate((step, -step), axis=1)  # on each task's forward, then its away entry
        change = _pool_loads(index, root * signed, stack.capacity.size).reshape(stack.capacity.shape)
        gamma = _line_step(loads, change, stack.capacity, 1.0)
        # Each entry takes its own task's step or none: a task whose forward
        # entry is its away entry steps 0.
        signed *= gamma[:, None]
        ahead = weights + _pool_loads(moves, signed, weights.size).reshape(weights.shape)
        if before is not None:
            ahead = _parallel_tangent(ahead, loads + gamma[:, None] * change, *before, stack.capacity)
        before, weights = (weights, loads), ahead
        if done.any():
            stop, keep = done.nonzero()[0], (~done).nonzero()[0]
            ended = alive[stop]
            iterations[ended], converged[ended] = t, True
            rounded[ended] = before[0].take(stop, axis=0).argmax(axis=-1)
            best_codes[ended], objective[ended] = incumbent.take(stop, axis=0), best[stop]
            if not keep.size:
                break
            alive, weights, stack = alive[keep], weights.take(keep, axis=0), stack.take(keep)
            before = tuple(array.take(keep, axis=0) for array in before)
            incumbent, best, bound = incumbent.take(keep, axis=0), best[keep], bound[keep]
            twice, pairs = twice.take(keep, axis=1), pairs[: keep.size]
            barred = None if barred is None else barred.take(keep, axis=0)
        loads = stack.loads(weights)
    else:  # cut by max_iters
        rounded[alive] = before[0].argmax(axis=-1)
        best_codes[alive], objective[alive] = incumbent, best

    traces = _split_traces(log, rows) if log is not None else [None] * rows
    yield from _finish(first, chunk, allowed, (best_codes, rounded), objective, traces, iterations, converged)


def _split_traces(log, rows: int) -> list:
    """Each row's trace, (iterations, 2), from the loop's per-iteration
    entries of the rows then live."""
    order = np.concatenate([alive for alive, _ in log])
    entries = np.concatenate([values for _, values in log])
    by_row = np.argsort(order, kind="stable")
    return np.split(entries[by_row], np.cumsum(np.bincount(order, minlength=rows))[:-1])


def _finish(stack: _Stack, chunk, allowed, starts, objective, traces, iterations, converged):
    """Finish every problem of a `_price_loop` the same way, whatever
    stopped it, yielding (position, plan) pairs in row order: problem b of
    `chunk` holds row b of `stack`, the loop's first stack, and may use the
    tier codes `allowed[b]`.  `starts` holds two (B, K) plans per problem,
    the incumbent (the best forward vertex or single-tier plan, whose cost
    is `objective`) and the rounded last iterate.  One lockstep
    `_local_search` per scheme polishes both where they differ, each
    problem keeps the better result (the incumbent's on a tie), and the
    plans' pool sums and total delays are added up as arrays
    (`_exact_totals`); each plan carries its clearing prices (W / F)^2."""
    incumbent, rounded = starts
    differs = np.flatnonzero((rounded != incumbent).any(axis=1))
    rows = np.concatenate((np.arange(len(chunk)), differs))
    codes = np.concatenate((incumbent, rounded[differs]))
    objective = np.concatenate((objective, stack.costs(rounded)[differs]))
    number = {tiers: i for i, tiers in enumerate(dict.fromkeys(allowed))}  # each scheme's tier codes
    scheme = np.array([number[tiers] for tiers in allowed])[rows]
    for tiers, i in number.items():
        at = np.flatnonzero(scheme == i)
        codes[at], objective[at] = _local_search(codes[at], objective[at], tiers, stack.take(rows[at]))
    tail = slice(len(chunk), None)
    wins = objective[tail] < objective[differs]
    codes[differs[wins]], objective[differs[wins]] = codes[tail][wins], objective[tail][wins]
    codes, objective = codes[: len(chunk)], objective[: len(chunk)]
    rates = np.array([problem[2] for _, problem in chunk], dtype=np.float64)
    sums, totals = _exact_totals(stack, codes, rates)
    prices = (sums.reshape(stack.capacity.shape) / stack.capacity) ** 2
    for (position, _), plan_codes, trace, t, done, best, total, plan_prices in zip(
        chunk, codes, traces, iterations.tolist(), converged.tolist(), objective.tolist(), totals.tolist(), prices
    ):
        yield position, _Plan(plan_codes, trace, t, done, best, total, plan_prices)


def _exact_totals(stack: _Stack, codes: np.ndarray, rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pool sums W and the total delay (B,) of each row's plan, for
    (B, K) tier codes and uplink rates, under the exact shares F_p
    (sqrt(d) / W_p) that `_shares` gives, as for `allocate_given_decision`.
    The sums come flat, (B P,), as `_shares` adds them up; the delays are
    `latency`'s legs and totals, so each total has the bits that
    `latency.total_delay` gives the same plan.  A share that is not
    strictly positive and finite is refused, as `Allocation` refuses it."""
    local, root, sums, shares = stack.allocate(codes)
    bad = (root > 0) & ~((shares > 0) & (shares < math.inf))
    if bad.any():
        term, row, k = (axis[0] for axis in bad.nonzero())
        pool = local[term, row, k]
        family = _FAMILIES[np.searchsorted(stack.starts, pool, side="right") - 1].share
        raise ValueError(f"{family}[{k}] = {shares[term, row, k]} must be strictly positive and finite")
    return sums, _totals(_delay_legs(stack.paths, rates, shares))
