import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import LinearConstraint, minimize, minimize_scalar

from fogplan import (
    Decision,
    DualState,
    Scheme,
    SolverConfig,
    allocate_given_decision,
    check_feasibility,
    enumerate_optimal,
    offload_objective,
    primal_bandwidth_from_duals,
    primal_speeds_from_duals,
    solve,
    total_delay,
)
from fogplan import solver
from fogplan.cli import _DRAWING_TIERS, SWEEP_PARAMETERS
from fogplan.phy import DEFAULT_NUM_ANTENNAS
from fogplan.cli import main as cli_main
from fogplan.latency import TIER_INDEX
from fogplan.scenario import TIERS, ScenarioSpec, TaskSet
from fogplan.solver import (
    _allowed_marginals,
    _barred,
    _dual_state,
    _layout,
    _line_step,
    _local_search,
    _marginals,
    _move_changes,
    _pair_blocks,
    _pair_steps,
    _pool_loads,
    _Pools,
    _price_vector,
    _uniform_weights,
)


def _member(index: np.ndarray, root: np.ndarray, num_pools: int) -> np.ndarray:
    """(B, K, 3, P) square roots of each task's demands spread over its
    problem's pool vector, from term-major (3, B, K, 3) pool indices that
    name each problem's own pools (0 to P - 1) and their sqrt demands: the
    tests' dense membership reference for the solver's sparse layout."""
    rows, num_tasks = index.shape[1:3]
    member = np.zeros((rows, num_tasks, 3, num_pools))
    member[np.arange(rows)[:, None, None], np.arange(num_tasks)[:, None], np.arange(3), index] = root
    return member


def _duals(mu=1.0, lam=1.0, rho=1.0, nu=1.0, xi=1.0, n_ru=1, n_du=1):
    return DualState(mu=np.full(n_ru, mu), lam=np.full(n_du, lam), rho=rho, nu=np.full(n_ru, nu), xi=np.full(n_du, xi))


def _term_shares(a, b, c, alpha, beta, gamma):
    """Per-task shares laid out like `_Pools.index[:, 0]`: (term, K, tier) with the
    terms compute, fronthaul, midhaul."""
    L, H, C = (TIER_INDEX[t] for t in TIERS)
    shares = np.zeros((3, np.size(a), 3))
    shares[0, :, L], shares[0, :, H], shares[0, :, C] = a, b, c
    shares[1, :, H], shares[1, :, C], shares[2, :, C] = alpha, gamma, beta
    return shares


def _loads(topo, **shares):
    """Pool vector of summed shares and the capacities, through the same
    scatter the price loop runs."""
    (capacity,), _, index = _layout([topo])
    terms = _term_shares(**{name: shares.get(name, 0.0) for name in ("a", "b", "c", "alpha", "beta", "gamma")})
    return _pool_loads(index[:, 0], terms, capacity.size), capacity


def _peak_overload(loads, capacity):
    """max(load / capacity) - 1 over the pools of a pool vector."""
    return float(np.max(loads / capacity)) - 1.0


def _starting_prices(problems):
    """The stationary prices (W / F)^2 of the price loop's first iterate,
    each task spread evenly over its allowed tiers, per problem (B, P)."""
    stack = solver._Stack(problems)
    return (stack.loads(_uniform_weights(stack)) / stack.capacity) ** 2


def _recovered_loads(duals, x, tasks, topo):
    """Pool loads of the closed-form shares at the given prices."""
    a, b, c = primal_speeds_from_duals(duals, x, tasks, topo)
    alpha, beta, gamma = primal_bandwidth_from_duals(duals, x, tasks, topo)
    return _loads(topo, a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma)


def _marginal_prices(duals, tasks, topo):
    """Per-task price of each tier at the given prices, (K, 3) in L, H, C
    order, through the loop's gather and marginal kernel."""
    pools = _Pools(tasks, topo)
    return _marginals(2.0 * pools.root[:, 0], np.sqrt(_price_vector(duals, topo))[pools.index[:, 0]])


def _dual_value_at(duals, tasks, topo, scheme):
    """The Lagrangian dual value at the given prices: the cheapest allowed
    marginals summed over tasks minus the priced capacities, sum pi F."""
    cheapest = _allowed_marginals(_marginal_prices(duals, tasks, topo), _barred(scheme)).min(axis=1)
    return cheapest.sum() - _price_vector(duals, topo) @ _Pools(tasks, topo).capacity[0]


# --- closed-form primal recovery -------------------------------------------


def test_speed_closed_form_example(make_topology, make_tasks):
    topo = make_topology()
    tasks = make_tasks(4.0, 1.0)  # demand of 4 cycles
    a, b, c = primal_speeds_from_duals(_duals(), np.array([[1.0, 0.0, 0.0]]), tasks, topo)
    assert a[0] == pytest.approx(2.0)
    assert b[0] == 0.0 and c[0] == 0.0


def test_zero_weight_gives_zero_share(make_topology, make_tasks):
    topo = make_topology()
    tasks = make_tasks(4.0, 1.0)
    duals = _duals(mu=1e-300)  # degenerate price is irrelevant when weight is zero
    a, b, c = primal_speeds_from_duals(duals, np.array([[0.0, 0.0, 1.0]]), tasks, topo)
    assert a[0] == 0.0 and b[0] == 0.0
    assert c[0] == pytest.approx(2.0)


def test_nonpositive_price_with_positive_weight_rejected(make_topology, make_tasks):
    topo = make_topology()
    tasks = make_tasks(4.0, 1.0)
    on = {tier: np.eye(3)[None, TIER_INDEX[tier]] for tier in TIERS}
    cases = (  # price named in the error, recovery, tier whose weight needs it
        ("mu", primal_speeds_from_duals, "L"), ("lam", primal_speeds_from_duals, "H"),
        ("rho", primal_speeds_from_duals, "C"), ("nu", primal_bandwidth_from_duals, "H"),
        ("xi", primal_bandwidth_from_duals, "C"),
    )
    for name, recover, tier in cases:
        with pytest.raises(ValueError, match=name):
            recover(_duals(**{name: 0.0}), on[tier], tasks, topo)
    # each recovery checks only the prices of its own shares
    primal_speeds_from_duals(_duals(nu=0.0, xi=0.0), on["C"], tasks, topo)
    primal_bandwidth_from_duals(_duals(mu=0.0, lam=0.0, rho=0.0), on["C"], tasks, topo)


def test_bandwidth_closed_form_example(make_topology, make_tasks):
    topo = make_topology(fronthaul_se=1.0)
    tasks = make_tasks(9.0, 1.0)
    alpha, beta, gamma = primal_bandwidth_from_duals(
        _duals(), np.array([[0.0, 1.0, 0.0]]), tasks, topo
    )
    assert alpha[0] == pytest.approx(3.0)
    assert beta[0] == 0.0 and gamma[0] == 0.0


def test_cloud_weight_drives_beta_gamma(make_topology, make_tasks):
    topo = make_topology(fronthaul_se=1.0, midhaul_se=1.0)
    tasks = make_tasks(9.0, 1.0)
    alpha, beta, gamma = primal_bandwidth_from_duals(
        _duals(), np.array([[0.0, 0.0, 1.0]]), tasks, topo
    )
    assert alpha[0] == 0.0
    assert beta[0] == pytest.approx(3.0) and gamma[0] == pytest.approx(3.0)


def test_share_stationarity_by_finite_differences(make_topology, make_tasks):
    # the recovered shares must zero the price-augmented cost derivatives
    rng = np.random.default_rng(17)
    topo = make_topology(fronthaul_se=2.0, midhaul_se=4.0)
    for _ in range(50):
        bits = rng.uniform(1e6, 1e8)
        density = rng.uniform(0.1, 10)
        tasks = make_tasks(bits, density)
        duals = _duals(*np.exp(rng.uniform(-25, 3, size=5)))
        x = rng.dirichlet(np.ones(3))[None, :]
        a, b, c = primal_speeds_from_duals(duals, x, tasks, topo)
        alpha, beta, gamma = primal_bandwidth_from_duals(duals, x, tasks, topo)
        cycles = bits * density
        fh = bits / 2.0
        mh = bits / 4.0
        cases = [
            (a[0], x[0, 0] ** 2 * cycles, duals.mu[0]),
            (b[0], x[0, 1] ** 2 * cycles, duals.lam[0]),
            (c[0], x[0, 2] ** 2 * cycles, duals.rho),
            (alpha[0], x[0, 1] ** 2 * fh, duals.nu[0]),
            (beta[0], x[0, 2] ** 2 * mh, duals.xi[0]),
            (gamma[0], x[0, 2] ** 2 * fh, duals.nu[0]),
        ]
        for share, numerator, price in cases:
            if share == 0.0:
                continue
            f = lambda s: numerator / s + price * s  # noqa: E731
            h = 1e-5 * share
            fd = (f(share + h) - f(share - h)) / (2 * h)
            assert abs(fd) / price < 1e-6


# --- marginal costs and decision extraction ---------------------------------


def test_marginal_cost_example_and_fd_oracle(make_topology, make_tasks):
    topo = make_topology()
    tasks = make_tasks(4.0, 1.0)
    marg = _marginal_prices(_duals(), tasks, topo)
    assert marg[0, 0] == pytest.approx(4.0)  # 2*sqrt(4*1)

    # finite-difference oracle: marginal equals d/dx of the x-weighted cost
    # with the share at its closed form for that x
    mu = 0.7
    s = math.sqrt(4.0 / mu)
    f = lambda x: (x ** 2) * 4.0 / (x * s) + mu * (x * s)  # noqa: E731
    fd = (f(0.5 + 1e-6) - f(0.5 - 1e-6)) / 2e-6
    marg2 = _marginal_prices(_duals(mu=mu), tasks, topo)
    assert marg2[0, 0] == pytest.approx(fd, rel=1e-8)
    with pytest.raises(ValueError, match="per RU"):
        _marginal_prices(_duals(n_ru=2), tasks, topo)  # prices sized for another topology


def test_marginal_order_with_equal_prices(make_topology, make_tasks):
    rng = np.random.default_rng(23)
    topo = make_topology(fronthaul_se=3.0, midhaul_se=3.0)
    for _ in range(20):
        tasks = make_tasks(rng.uniform(1e6, 1e8), rng.uniform(0.1, 10))
        v = float(np.exp(rng.uniform(-20, 0)))
        marg = _marginal_prices(_duals(v, v, v, v, v), tasks, topo)
        assert marg[0, 0] < marg[0, 1] < marg[0, 2]


def test_marginal_cloud_compute_term_vanishes_with_price(make_topology, make_tasks):
    topo = make_topology(fronthaul_se=1.0, midhaul_se=1.0)
    tasks = make_tasks(9.0, 1.0)
    small = _marginal_prices(_duals(rho=1e-30), tasks, topo)
    expected = 2 * math.sqrt(9.0) + 2 * math.sqrt(9.0)  # fronthaul + midhaul terms only
    assert small[0, 2] == pytest.approx(expected, rel=1e-6)


def test_extract_decision_cases():
    # the loop's tier pick: the row argmin of the allowed marginals, the
    # cheapest allowed tier with ties resolved in L, H, C order
    def pick(marg, scheme):
        return [TIERS[c] for c in _allowed_marginals(np.array(marg), _barred(scheme)).argmin(axis=1)]

    marg = [[4.0, 5.0, 6.0]]
    assert pick(marg, Scheme.FOG) == ["L"]
    assert pick(marg, Scheme.CLOUD_DU) == ["H"]
    assert pick(marg, Scheme.CLOUD) == ["C"]
    assert pick([[4.0, 4.0, 6.0]], Scheme.FOG) == ["L"]
    assert pick([[7.0, 4.0, 4.0]], Scheme.FOG) == ["H"]
    assert pick([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]], Scheme.CLOUD_RU) == ["L", "C"]


# --- Frank-Wolfe steps --------------------------------------------------------


def _fw_point(random_instance, rng, rows=6):
    """Desk problems under every scheme, their stack, random interior tier
    weights on each row's allowed tiers, and their membership matrix."""
    problems = []
    for row in range(rows):
        scenario, rates = random_instance(seed=row, num_users=8, num_rus=4, num_dus=2)
        problems.append((scenario.topology, scenario.tasks, rates, list(Scheme)[row % len(Scheme)]))
    stack = solver._Stack(problems)
    weights = rng.dirichlet(np.ones(3), size=stack.first.shape) * _uniform_weights(stack)
    weights /= weights.sum(axis=-1, keepdims=True)
    member = _member(stack.local, stack.root, stack.capacity.shape[1])
    return problems, stack, weights, member


def _relaxed(weights, member, capacity):
    """sum_p W_p^2 / F_p of tier weights (K, 3), with W from the membership
    matrix rather than the loop's scatter."""
    loads = np.einsum("kt,ktp->p", weights, member)
    return float(np.sum(loads**2 / capacity))


def _dense_minimum(f, limit):
    """The minimizer of a 1-D function on [0, limit]: the best of a dense
    grid, refined by bounded Brent search between its grid neighbours."""
    grid = np.linspace(0.0, limit, 2001)
    best = int(np.argmin([f(g) for g in grid]))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, grid.size - 1)]
    found = minimize_scalar(f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-15 * limit})
    return min((grid[best], found.x), key=f)


def test_pairwise_steps_match_dense_line_search(random_instance):
    # Each task's own pairwise step and the row's step along all its tasks'
    # moves are closed forms; both must match a dense 1-D minimization of f
    # along their segments: the same minimum to 1e-9 relative, never above
    # it by more than rounding, at the same point to 1e-6 of the segment
    # (f is flat at its minimum, so rounding in f hides the minimizer's
    # last digits from any search by values).
    rng = np.random.default_rng(31)
    _, stack, weights, member = _fw_point(random_instance, rng)
    loads = stack.loads(weights)
    marg = _marginals(2.0 * stack.root, (loads / stack.capacity).ravel().take(stack.index))
    allowed = _allowed_marginals(marg, stack.barred)
    forward = stack.first + allowed.argmin(axis=-1)
    away = stack.first + np.where(weights > 0, marg, -np.inf).argmax(axis=-1)
    moves = np.concatenate((forward, away), axis=1)
    cheapest = allowed.ravel().take(forward)
    steps = _pair_steps(stack, marg, cheapest, weights, moves, stack.terms.take(moves, axis=1),
                        stack.root_terms.take(moves, axis=1))
    change = stack.picked_loads(moves, np.concatenate((steps, -steps), axis=1))
    rows = _line_step(loads, change, stack.capacity, 1.0)
    interior = clipped = 0
    for row in range(weights.shape[0]):
        capacity = stack.capacity[row]
        into, out_of = divmod(forward[row] - stack.first[row], 3)[1], divmod(away[row] - stack.first[row], 3)[1]
        for k in range(weights.shape[1]):
            if into[k] == out_of[k]:
                assert steps[row, k] == 0.0
                continue
            mass = weights[row, k, out_of[k]]

            def along(g, k=k):
                moved = weights[row].copy()
                moved[k, into[k]] += g
                moved[k, out_of[k]] -= g
                return _relaxed(moved, member[row], capacity)

            want = _dense_minimum(along, mass)
            assert abs(steps[row, k] - want) <= 1e-6 * mass, (row, k)
            assert along(want) * (1 - 1e-9) <= along(steps[row, k]) <= along(want) * (1 + 1e-12)
            interior += steps[row, k] < mass
            clipped += steps[row, k] == mass
        if not steps[row].any():
            assert rows[row] == 0.0
            continue

        def joint(g):
            moved = weights[row].copy()
            for k in range(weights.shape[1]):
                moved[k, into[k]] += g * steps[row, k]
                moved[k, out_of[k]] -= g * steps[row, k]
            return _relaxed(moved, member[row], capacity)

        want = _dense_minimum(joint, 1.0)
        assert abs(rows[row] - want) <= 1e-6, row
        assert joint(want) * (1 - 1e-9) <= joint(rows[row]) <= joint(want) * (1 + 1e-12)
    assert interior and clipped  # both kinds of task step occur


def test_parallel_tangent_keeps_weights_feasible_and_descends(random_instance):
    # The extrapolation along the parallel tangent stays on every task's
    # simplex, never raises f, and is the exact line search along it.
    rng = np.random.default_rng(5)
    _, stack, before, member = _fw_point(random_instance, rng)
    weights = rng.dirichlet(np.ones(3), size=before.shape[:2]) * _uniform_weights(stack)
    weights /= weights.sum(axis=-1, keepdims=True)
    weights = 0.5 * (before + weights)
    loads, before_loads = stack.loads(weights), stack.loads(before)
    after = solver._parallel_tangent(weights, loads, before, before_loads, stack.capacity)
    assert (after >= 0).all() and np.allclose(after.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert (after[np.broadcast_to(stack.barred > 0, after.shape)] == 0).all()
    for row in range(after.shape[0]):
        f = _relaxed(after[row], member[row], stack.capacity[row])
        assert f <= _relaxed(weights[row], member[row], stack.capacity[row]) * (1 + 1e-12)
        direction = weights[row] - before[row]
        negative = direction < 0
        limit = np.min(weights[row][negative] / -direction[negative]) if negative.any() else 1e6
        want = _dense_minimum(lambda g: _relaxed(weights[row] + g * direction, member[row], stack.capacity[row]),
                              limit)
        assert f <= _relaxed(weights[row] + want * direction, member[row], stack.capacity[row]) * (1 + 1e-12)


def test_exported_kernels_reproduce_the_loop_trace(random_instance):
    # The loop's first iterate spreads each task evenly over its allowed
    # tiers; its trace entry is the loop's kernels evaluated at that
    # iterate's stationary prices (W / F)^2.  The exported kernels must give
    # it: the dual value to rounding (the loop reads W / F, not the square
    # root of its square), and the best objective bit for bit, the cheaper
    # of the cheapest allowed tiers there and the cheapest allowed
    # single-tier plan, each scored by `offload_objective`.
    config = SolverConfig(max_iters=1)
    checked = 0
    for num_users, num_rus, num_dus, seeds in ((6, 4, 2, range(4)), (8, 4, 2, range(4)), (40, 10, 4, range(2))):
        for seed in seeds:
            scenario, rates = random_instance(seed=seed, num_users=num_users, num_rus=num_rus, num_dus=num_dus)
            topo, tasks = scenario.topology, scenario.tasks
            for scheme in Scheme:
                res = solve(topo, tasks, rates, scheme, config)
                assert res.iterations == 1 == res.trace["best_objective_s"].size
                assert set(res.trace) == {"dual_value_s", "best_objective_s"}
                assert res.converged == (scheme is Scheme.CLOUD)  # one tier: the relaxation is the plan
                [prices] = _starting_prices([(topo, tasks, rates, scheme)])
                duals = _dual_state(prices, _Pools(tasks, topo).starts)
                picks = _allowed_marginals(_marginal_prices(duals, tasks, topo), _barred(scheme)).argmin(axis=1)
                dual = _dual_value_at(duals, tasks, topo, scheme)
                assert res.trace["dual_value_s"][0] == pytest.approx(dual, rel=1e-12)
                candidate = offload_objective(Decision(tuple(TIERS[c] for c in picks)), tasks, topo)
                single = min(offload_objective(Decision((tier,) * len(picks)), tasks, topo)
                             for tier in scheme.allowed_tiers)
                assert res.trace["best_objective_s"][0] == min(candidate, single)
                checked += 1
    assert checked >= 30


def test_exported_kernels_match_per_family_formulas_on_many_pools(random_instance):
    # The kernels work on one pool vector; written out here family by family,
    # with several RUs and DUs, so each task's terms must land on its own
    # RU's and DU's pools and the vector must split back in DualState order.
    rng = np.random.default_rng(8)
    scenario, _ = random_instance(seed=4, num_users=12, num_rus=4, num_dus=2)
    topo, tasks = scenario.topology, scenario.tasks
    ru, du = topo.user_to_ru, topo.user_du
    assert len(set(ru.tolist())) == 4 and len(set(du.tolist())) == 2
    cycles = tasks.compute_cycles
    fh = tasks.data_bits / topo.fronthaul_se[ru]
    mh = tasks.data_bits / topo.midhaul_se[du]
    starts = _Pools(tasks, topo).starts
    [init_prices] = _starting_prices([(topo, tasks, None, Scheme.FOG)])
    init = _dual_state(init_prices, starts)

    def close(got, expected, scale):
        assert abs(got - expected) <= 1e-12 * scale

    for _ in range(10):
        duals = DualState(
            mu=init.mu * np.exp(rng.uniform(-2, 2, 4)),
            lam=init.lam * np.exp(rng.uniform(-2, 2, 2)),
            rho=init.rho * float(np.exp(rng.uniform(-2, 2))),
            nu=init.nu * np.exp(rng.uniform(-2, 2, 4)),
            xi=init.xi * np.exp(rng.uniform(-2, 2, 2)),
        )
        fh_term = 2 * np.sqrt(fh * duals.nu[ru])
        marg = np.column_stack((
            2 * np.sqrt(cycles * duals.mu[ru]),
            2 * np.sqrt(cycles * duals.lam[du]) + fh_term,
            2 * np.sqrt(cycles * duals.rho) + fh_term + 2 * np.sqrt(mh * duals.xi[du]),
        ))
        np.testing.assert_allclose(_marginal_prices(duals, tasks, topo), marg, rtol=1e-12)

        priced = (
            duals.mu @ topo.mecl_capacity_hz + duals.lam @ topo.mech_capacity_hz
            + duals.rho * topo.cloud_capacity_hz
            + duals.nu @ topo.fronthaul_capacity_hz + duals.xi @ topo.midhaul_capacity_hz
        )
        for scheme in Scheme:
            cheapest = marg[:, [TIER_INDEX[t] for t in scheme.allowed_tiers]].min(axis=1).sum()
            close(_dual_value_at(duals, tasks, topo, scheme), cheapest - priced, cheapest + priced)

        x = rng.dirichlet(np.ones(3), size=12)
        a, b, c = primal_speeds_from_duals(duals, x, tasks, topo)
        alpha, beta, gamma = primal_bandwidth_from_duals(duals, x, tasks, topo)
        loads, _ = _loads(topo, a=a, b=b, c=c, alpha=alpha, beta=beta, gamma=gamma)
        families = (  # price name, load, capacity
            ("mu", np.bincount(ru, weights=a, minlength=4), topo.mecl_capacity_hz),
            ("lam", np.bincount(du, weights=b, minlength=2), topo.mech_capacity_hz),
            ("rho", c.sum(), topo.cloud_capacity_hz),
            ("nu", np.bincount(ru, weights=alpha + gamma, minlength=4), topo.fronthaul_capacity_hz),
            ("xi", np.bincount(du, weights=beta, minlength=2), topo.midhaul_capacity_hz),
        )
        for name, load, _ in families:  # the scatter lands every share on its own pool
            np.testing.assert_allclose(getattr(_dual_state(loads, starts), name), load, rtol=1e-12, err_msg=name)


def test_violation_below_tolerance_after_500_iterations(random_instance):
    # The shares `primal_*` recover for the returned plan at the returned
    # prices overload no pool, whatever stopped the loop, converged or not.
    scenario, rates = random_instance(seed=0)
    topo, tasks = scenario.topology, scenario.tasks
    res = solve(topo, tasks, rates, Scheme.FOG, SolverConfig(max_iters=500))
    x = np.eye(3)[res.decision.codes]
    assert _peak_overload(*_recovered_loads(res.duals, x, tasks, topo)) < 1e-3


# --- exact per-decision allocation ------------------------------------------


def test_pool_split_matches_grid_search(make_topology, make_tasks):
    topo = make_topology(num_users=2, mecl_capacity_hz=5e9)
    tasks = make_tasks([4e8, 9e8], [10.0, 10.0])  # 4 and 9 Gcycles
    alloc = allocate_given_decision(Decision(("L", "L")), tasks, topo)
    assert alloc.mecl_speed[0] == pytest.approx(2e9)
    assert alloc.mecl_speed[1] == pytest.approx(3e9)
    pool_delay = 4e9 / alloc.mecl_speed[0] + 9e9 / alloc.mecl_speed[1]
    assert pool_delay == pytest.approx(5.0)
    # 1-D grid search over the split confirms the minimum
    f1 = np.linspace(1e6, 5e9 - 1e6, 20001)
    grid = 4e9 / f1 + 9e9 / (5e9 - f1)
    assert pool_delay <= grid.min() + 1e-9
    assert pool_delay == pytest.approx(grid.min(), rel=1e-6)


def test_single_member_gets_full_capacity(make_topology, make_tasks):
    topo = make_topology()
    tasks = make_tasks(1e7, 2.0)
    alloc = allocate_given_decision(Decision(("L",)), tasks, topo)
    assert alloc.mecl_speed[0] == pytest.approx(2e9)
    assert alloc.fronthaul_bw == {} and alloc.midhaul_bw == {}


def test_equal_demands_split_equally(make_topology, make_tasks):
    topo = make_topology(num_users=4, cloud_capacity_hz=8e9)
    tasks = make_tasks([1e7] * 4, [1.0] * 4)
    alloc = allocate_given_decision(Decision(("C",) * 4), tasks, topo)
    for k in range(4):
        assert alloc.cloud_speed[k] == pytest.approx(2e9)
        assert alloc.fronthaul_bw[k] == pytest.approx(300e6 / 4)
        assert alloc.midhaul_bw[k] == pytest.approx(500e6 / 4)


def test_offload_objective_matches_allocation_total(make_topology, make_tasks, random_instance):
    # besides matching the objective, every pool a plan uses is split exactly:
    # shares go to just the tasks whose tier draws on it and sum to its capacity
    rng = np.random.default_rng(1)
    from fogplan.phy import access_delay
    for num_users, num_rus in ((6, 3), (12, 4)):
        scenario, rates = random_instance(seed=5, num_users=num_users, num_rus=num_rus, num_dus=2)
        topo, tasks = scenario.topology, scenario.tasks
        access = sum(access_delay(float(tasks.data_bits[k]), rates[k]) for k in range(num_users))
        families = (  # allocation map, tiers that use it, each task's pool, pool capacities
            ("mecl_speed", "L", topo.user_to_ru, topo.mecl_capacity_hz),
            ("mech_speed", "H", topo.user_du, topo.mech_capacity_hz),
            ("cloud_speed", "C", np.zeros(num_users, dtype=int), np.array([topo.cloud_capacity_hz])),
            ("fronthaul_bw", "HC", topo.user_to_ru, topo.fronthaul_capacity_hz),
            ("midhaul_bw", "C", topo.user_du, topo.midhaul_capacity_hz),
        )
        for scheme in Scheme:
            for _ in range(10):
                decision = Decision(tuple(rng.choice(scheme.allowed_tiers, size=num_users)))
                alloc = allocate_given_decision(decision, tasks, topo)
                exact = total_delay(topo, tasks, decision, alloc, rates)
                assert offload_objective(decision, tasks, topo) + access == pytest.approx(exact, rel=1e-12)
                assert check_feasibility(topo, tasks, decision, alloc) == []
                for name, tiers, pool_of, capacity in families:
                    shares = getattr(alloc, name)
                    members = [k for k, tier in enumerate(decision.tiers) if tier in tiers]
                    assert sorted(shares) == members, name
                    used = np.unique(pool_of[members]).astype(int)
                    totals = np.bincount(pool_of[members], weights=[shares[k] for k in members], minlength=capacity.size)
                    np.testing.assert_allclose(totals[used], capacity[used], rtol=1e-12, err_msg=name)


# --- solve -------------------------------------------------------------------


def test_cloud_scheme_pins_every_task_to_cloud(random_instance):
    scenario, rates = random_instance(seed=2, num_users=6, num_rus=3, num_dus=2)
    res = solve(scenario.topology, scenario.tasks, rates, Scheme.CLOUD)
    assert res.decision.tiers == ("C",) * 6
    expected = allocate_given_decision(res.decision, scenario.tasks, scenario.topology)
    assert res.allocation.cloud_speed == pytest.approx(expected.cloud_speed)
    assert res.allocation.fronthaul_bw == pytest.approx(expected.fronthaul_bw)
    assert res.allocation.midhaul_bw == pytest.approx(expected.midhaul_bw)
    assert res.converged


def test_schemes_restrict_tiers(random_instance):
    # One by one and as one stacked stream, every plan uses only its scheme's
    # tiers: on an ordinary instance, and on the inputs of test_cli's
    # EXTREME_CASES at the same scenario seed (a capacity no allowed tier
    # draws on at 1e-300; spectral efficiencies at 1e300, or at 1e-200 and
    # below, where an allowed tier's demand times price once overflowed and
    # left a barred tier the cheapest).
    extreme = (
        [("mecl_capacity_hz", 1e-300, scheme) for scheme in (Scheme.CLOUD_DU, Scheme.CLOUD)]
        + [("mech_capacity_hz", 1e-300, scheme) for scheme in (Scheme.CLOUD_RU, Scheme.CLOUD)]
        + [(name, 1e300, scheme) for name in ("fronthaul_se", "midhaul_se") for scheme in Scheme]
        + [("fronthaul_se", value, scheme) for value in (1e-200, 1e-300) for scheme in (Scheme.CLOUD_DU, Scheme.CLOUD)]
        + [("midhaul_se", value, Scheme.CLOUD) for value in (1e-200, 1e-300)]
    )
    instances = [(random_instance(seed=6, num_users=6), scheme) for scheme in Scheme]
    for name, value, scheme in extreme:
        instances.append((random_instance(seed=1, num_users=3, num_rus=2, num_dus=1, **{name: value}), scheme))
    problems = [(scenario.topology, scenario.tasks, rates, scheme) for (scenario, rates), scheme in instances]
    for position, plan in solver._solve_batch(problems):
        topo, tasks, rates, scheme = problems[position]
        res = solve(topo, tasks, rates, scheme)
        assert set(res.decision.tiers) <= set(scheme.allowed_tiers), position
        assert [TIER_INDEX[t] for t in res.decision.tiers] == plan.codes.tolist()
        assert check_feasibility(topo, tasks, res.decision, res.allocation) == []


def test_solver_output_always_feasible(random_instance):
    for seed in range(25):
        scenario, rates = random_instance(seed=seed, num_users=6, num_rus=3, num_dus=2)
        for scheme in Scheme:
            res = solve(scenario.topology, scenario.tasks, rates, scheme)
            assert check_feasibility(scenario.topology, scenario.tasks, res.decision, res.allocation) == []


def test_solve_is_deterministic(random_instance):
    scenario, rates = random_instance(seed=9, num_users=7, num_rus=3, num_dus=2)
    a = solve(scenario.topology, scenario.tasks, rates, Scheme.FOG)
    b = solve(scenario.topology, scenario.tasks, rates, Scheme.FOG)
    assert a.decision.tiers == b.decision.tiers
    assert a.total_delay_s == b.total_delay_s
    assert a.iterations == b.iterations
    assert a.allocation.mecl_speed == b.allocation.mecl_speed
    assert a.allocation.fronthaul_bw == b.allocation.fronthaul_bw
    assert np.array_equal(a.duals.mu, b.duals.mu)
    assert np.array_equal(a.trace["dual_value_s"], b.trace["dual_value_s"])


def _assert_same_result(got, want):
    assert got.decision == want.decision and got.allocation == want.allocation
    for name in ("mu", "lam", "nu", "xi"):
        assert getattr(got.duals, name).tobytes() == getattr(want.duals, name).tobytes()
    assert got.duals.rho == want.duals.rho
    for name in ("iterations", "converged", "objective_s", "total_delay_s", "best_dual_value_s", "duality_gap"):
        assert getattr(got, name) == getattr(want, name), name
    assert list(got.trace) == list(want.trace)
    for name, values in got.trace.items():
        assert values.tobytes() == want.trace[name].tobytes(), name


def test_stacked_layout_matches_single_problem_kernels(random_instance):
    # The price loop stacks its problems term-major, (term, problem, task,
    # tier).  Before and after compaction, each row's marginals, cheapest
    # allowed marginals, scattered pool loads and weighted pool sums must
    # equal the single-problem kernels bit for bit.
    rng = np.random.default_rng(11)
    schemes = (Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU, Scheme.CLOUD, Scheme.FOG)
    problems = []
    for seed, scheme in enumerate(schemes):
        scenario, rates = random_instance(seed=seed, num_users=8, num_rus=4, num_dus=2)
        problems.append((scenario.topology, scenario.tasks, rates, scheme))
    stack = solver._Stack(problems)
    prices = _starting_prices(problems) * np.exp(rng.uniform(-1, 1, stack.capacity.shape))
    weights = rng.dirichlet(np.ones(3), size=(len(problems), 8)) * _uniform_weights(stack)
    capacity = stack.capacity
    keep = np.array([4, 0, 2, 3])  # rows move down and one leaves
    for stack, rows in ((stack, np.arange(len(problems))), (stack.take(keep), keep)):
        assert np.array_equal(stack.capacity, capacity[rows])
        weighted = stack.loads(weights[rows])
        row_prices = prices[rows]
        marg = solver._marginals(2.0 * stack.root, np.sqrt(row_prices).ravel().take(stack.index))
        allowed = _allowed_marginals(marg, stack.barred)
        cheapest = allowed.ravel().take(stack.first + allowed.argmin(axis=-1))
        codes = np.array([rng.choice([TIER_INDEX[t] for t in problems[r][3].allowed_tiers], size=8) for r in rows])
        picked = stack.first + codes
        loads = _pool_loads(stack.terms.take(picked, axis=1), stack.root_terms.take(picked, axis=1), row_prices.size)
        loads = loads.reshape(row_prices.shape)
        member = _member(stack.index - (np.arange(rows.size) * row_prices.shape[1])[:, None, None], stack.root,
                         row_prices.shape[1])  # what the polish reads, for the rows as they stand
        for row, r in enumerate(rows):
            topo, tasks, _, scheme = problems[r]
            pools = _Pools(tasks, topo)
            single = _marginal_prices(_dual_state(row_prices[row], pools.starts), tasks, topo)
            assert np.array_equal(marg[row], single)
            assert np.array_equal(cheapest[row], _allowed_marginals(single, _barred(scheme)).min(axis=1))
            assert np.array_equal(loads[row], pools.picked_loads(pools.first + codes[row])[0])
            assert np.array_equal(loads[row], np.add.reduce(member[row, np.arange(8), codes[row]], axis=0))
            alone = solver._Stack([problems[r]])
            assert np.array_equal(weighted[row], alone.loads(weights[r][None])[0])


def test_batch_matches_single_solves(random_instance, make_topology, monkeypatch):
    # One price loop serves the whole batch; no row may read another, so each
    # plan must give the single solve's result bit for bit, including rows
    # that converge early and leave the stack and rows cut by max_iters.  The problems are streamed in from an iterator and the plans
    # out as (position, plan) pairs at the end of each loop; the empty task
    # set does not split a run.
    problems = []
    for seed in range(4):
        scenario, rates = random_instance(seed=seed, num_users=8, num_rus=4, num_dus=2)
        problems += [(scenario.topology, scenario.tasks, rates, scheme) for scheme in Scheme]
    scenario, rates = random_instance(seed=4, num_users=6, num_rus=4, num_dus=2)
    problems += [(scenario.topology, scenario.tasks, rates, scheme) for scheme in Scheme]
    zero_rate = rates.copy()
    zero_rate[0] = 0.0
    problems.append((scenario.topology, scenario.tasks, zero_rate, Scheme.FOG))
    empty = (make_topology(num_users=0), TaskSet(data_bits=np.array([]), cycles_per_bit=np.array([])), np.array([]))
    problems.insert(3, empty + (Scheme.CLOUD,))

    chunks = []
    price_loop = solver._price_loop
    monkeypatch.setattr(solver, "_price_loop",
                        lambda chunk, cfg, **kw: chunks.append(len(chunk)) or price_loop(chunk, cfg, **kw))
    # 24 tasks per loop makes chunks of three K=8 or four K=6 problems, so
    # chunk boundaries fall inside the batch and inside a seed's schemes.
    for config, batch_tasks in ((SolverConfig(), None), (SolverConfig(max_iters=8), None), (SolverConfig(), 24)):
        singles = [solve(*problem, config) for problem in problems]
        chunks.clear()
        if batch_tasks:
            monkeypatch.setattr(solver, "_BATCH_TASKS", batch_tasks)
        pairs = list(solver._solve_batch(iter(problems), config, trace=True))
        assert chunks == ([3, 3, 3, 3, 3, 1, 4, 1] if batch_tasks else [16, 5])
        assert sorted(position for position, _ in pairs) == list(range(len(problems)))
        plans = [plan for _, plan in sorted(pairs, key=lambda pair: pair[0])]
        batch = [solver._result(plan, problem) for plan, problem in zip(plans, problems)]
        for plan, got, want in zip(plans, batch, singles):
            _assert_same_result(got, want)
            assert plan.total_delay_s == want.total_delay_s
        assert len({result.iterations for result in batch}) > 2  # rows leave the stack at different iterations
        assert batch[3].decision.tiers == () and math.isinf(batch[-1].total_delay_s)
        if config.max_iters == 8:
            assert any(r.converged for r in batch) and any(r.iterations == 8 and not r.converged for r in batch)
        assert all(r.converged or r.iterations == config.max_iters for r in batch)  # no other stop


def _record_iterates(monkeypatch) -> list:
    """A list that collects, solve after solve, the pool sums (rows, P) of
    every iterate the price loop steps from: each iteration's first line
    search (the pairwise one, whose limit is the float 1.0) starts there."""
    iterates = []
    line_step = solver._line_step

    def recording(loads, change, capacity, limit):
        if isinstance(limit, float):
            iterates.append(loads.copy())
        return line_step(loads, change, capacity, limit)

    monkeypatch.setattr(solver, "_line_step", recording)
    return iterates


def _assert_gap_rule(res, iterates, capacity, config) -> list:
    """Check that a one-problem solve stopped by the relaxed gap rule and no
    other: converged exactly at the first iteration t where f_t -
    max(dual_1..t) <= epsilon f_t, for the relaxed objective f_t of the
    iterate of iteration t, else cut at max_iters.  Returns the f_t."""
    t = res.iterations
    assert len(iterates) == t and all(values.size == t for values in res.trace.values())
    relaxed = [float(solver._cost(loads, capacity)[0]) for loads in iterates]
    bound = np.maximum.accumulate(res.trace["dual_value_s"]).tolist()
    met = [f - b <= config.epsilon * f for f, b in zip(relaxed, bound)]
    assert not any(met[:-1]) and met[-1] == res.converged, t
    assert res.converged or t == config.max_iters
    return relaxed


def _stops(random_instance):
    """(problem, config, result) of solves that stop both ways the loop can
    stop, over all four schemes: a K=8 set, one with an RU without users and
    one with a zero-rate user, each run to convergence and cut by
    max_iters=5."""
    instances = [random_instance(seed=seed, num_users=8, num_rus=4, num_dus=2) for seed in range(6)]
    instances.append(random_instance(seed=6, num_users=4, num_rus=6, num_dus=2))
    scenario, rates = random_instance(seed=7, num_users=6, num_rus=4, num_dus=2)
    instances.append((scenario, np.where(np.arange(6) == 2, 0.0, rates)))
    stops = []
    for scenario, rates in instances:
        for scheme in Scheme:
            problem = (scenario.topology, scenario.tasks, rates, scheme)
            for config in (SolverConfig(), SolverConfig(max_iters=5)):
                stops.append((problem, config, solve(*problem, config)))
    return stops


def test_converged_is_the_relaxed_gap_rule(random_instance, monkeypatch):
    # A solve converges exactly at the first iteration t where its relaxed
    # objective f_t, at the iterate the loop steps from, is within epsilon
    # of the best dual value so far: f_t - max(dual_1..t) <= epsilon f_t.
    # Otherwise it runs to max_iters.  The trace ends at the stopping
    # iteration, and a solve cut by max_iters there returns the same result
    # bit for bit.
    iterates = _record_iterates(monkeypatch)
    kinds = set()
    for (topo, tasks, rates, scheme), config, res in _stops(random_instance):
        iterates.clear()
        again = solve(topo, tasks, rates, scheme, config)
        t = res.iterations
        assert len(iterates) == t and all(values.size == t for values in res.trace.values())
        relaxed = _assert_gap_rule(res, iterates, _Pools(tasks, topo).capacity, config)
        assert all(b <= f * (1 + 1e-12) for f, b in zip(relaxed, np.maximum.accumulate(res.trace["dual_value_s"])))
        _assert_same_result(again, res)
        if res.converged and t < config.max_iters:
            _assert_same_result(solve(topo, tasks, rates, scheme, SolverConfig(max_iters=t)), res)
        kinds.add((scheme, res.converged))
    assert kinds == {(scheme, done) for scheme in Scheme for done in (True, False)} - {(Scheme.CLOUD, False)}


def test_drawing_tiers_follow_the_pool_layout(random_instance):
    # The tiers that draw on each swept capacity, by which a sweep decides
    # which plans its swept capacity cannot change, must be the nonzero
    # pattern of the pool layout's demands on that capacity's pools.
    families = ("mecl_capacity_hz", "mech_capacity_hz", "cloud_capacity_hz", "fronthaul_capacity_hz",
                "midhaul_capacity_hz")
    assert set(_DRAWING_TIERS) == set(SWEEP_PARAMETERS) - {"k"}
    for seed, (num_users, num_rus, num_dus) in enumerate(((8, 4, 2), (12, 4, 2), (6, 1, 1), (40, 10, 4))):
        scenario, _ = random_instance(seed=seed, num_users=num_users, num_rus=num_rus, num_dus=num_dus)
        topo, tasks = scenario.topology, scenario.tasks
        pools = _Pools(tasks, topo)
        member = _member(pools.index, pools.root, pools.capacity.size)[0]
        assert pools.capacity.tobytes() == np.hstack([getattr(topo, name) for name in families]).tobytes()
        bounds = pools.starts.tolist() + [pools.capacity.size]
        spans = {name: (start, stop) for name, start, stop in zip(families, bounds, bounds[1:])}
        for parameter, tiers in _DRAWING_TIERS.items():
            start, stop = spans[SWEEP_PARAMETERS[parameter]]
            draws = {tier for tier in TIERS if member[:, TIER_INDEX[tier], start:stop].any()}
            assert tiers == draws, parameter


def test_plans_ignore_capacities_no_allowed_tier_draws_on(random_instance):
    # A sweep plans a scheme none of whose tiers draws on the swept capacity
    # once and reuses the plan at every point: under such a scheme the solve
    # must not move at all when that capacity does.  The scheme prices no
    # pool it does not draw on, so its duals, dual values and traces do not
    # move either.
    flat_schemes = {}
    for parameter in ("fl", "fh"):
        field = SWEEP_PARAMETERS[parameter]
        flat = [scheme for scheme in Scheme if _DRAWING_TIERS[parameter].isdisjoint(scheme.allowed_tiers)]
        flat_schemes[field] = set(flat)
        for seed in range(6):
            scenario, rates = random_instance(seed=seed, num_users=8, num_rus=4, num_dus=2)
            topo, tasks = scenario.topology, scenario.tasks
            for scheme in flat:
                results = [
                    solve(dataclasses.replace(topo, **{field: np.full(getattr(topo, field).size, capacity)}), tasks,
                          rates, scheme)
                    for capacity in (7e8, 3e11)
                ]
                for name in ("decision", "iterations", "converged", "objective_s", "total_delay_s",
                             "best_dual_value_s", "duality_gap"):
                    assert getattr(results[0], name) == getattr(results[1], name), (field, seed, scheme, name)
                prices = [_price_vector(result.duals, topo).tobytes() for result in results]
                assert prices[0] == prices[1], (field, seed, scheme)
                for name, values in results[0].trace.items():
                    assert values.tobytes() == results[1].trace[name].tobytes(), (field, seed, scheme, name)
    assert flat_schemes == {
        "mecl_capacity_hz": {Scheme.CLOUD_DU, Scheme.CLOUD},
        "mech_capacity_hz": {Scheme.CLOUD_RU, Scheme.CLOUD},
    }


def test_pools_no_allowed_tier_draws_on_are_priced_zero(random_instance):
    # A scheme has no capacity constraint, and so no price, for a pool none
    # of its tiers draws on: its starting price is 0, and so is its returned
    # price, whether the solve converges or is cut by max_iters.  Every pool
    # an allowed tier of some task draws on starts at a positive price; the
    # rest (those families, and the pools of an RU without users) at 0.
    unread = {Scheme.CLOUD_RU: ("lam",), Scheme.CLOUD_DU: ("mu",), Scheme.CLOUD: ("mu", "lam")}
    stops = set()
    for seed in range(8):
        scenario, rates = random_instance(seed=seed, num_users=8, num_rus=4, num_dus=2)
        problems = [(scenario.topology, scenario.tasks, rates, scheme) for scheme in unread]
        pools = _Pools(scenario.tasks, scenario.topology)
        member = _member(pools.index, pools.root, pools.capacity.size)[0]
        for problem, prices in zip(problems, _starting_prices(problems)):
            scheme = problem[3]
            read = member[:, [TIER_INDEX[t] for t in scheme.allowed_tiers]].any(axis=(0, 1))
            assert (prices[read] > 0).all() and (prices[~read] == 0).all(), (seed, scheme)
            for family in unread[scheme]:
                assert np.all(getattr(_dual_state(prices, pools.starts), family) == 0), (seed, scheme, family)
            for config in (SolverConfig(), SolverConfig(max_iters=2)):
                result = solve(*problem, config)
                stops.add((result.converged, result.iterations == config.max_iters))
                for family in unread[scheme]:
                    assert np.all(getattr(result.duals, family) == 0), (seed, scheme, family, config)
    assert {(True, False), (False, True)} <= stops


def test_fog_never_loses_to_baselines(random_instance):
    # nested feasible sets: the full scheme should win on every instance; the
    # 200 x 4 problems are planned as one batch stream, which gives each the
    # plan of its single solve
    instances = [random_instance(seed=seed, num_users=4, num_rus=2, num_dus=1) for seed in range(200)]
    problems = [(sc.topology, sc.tasks, rates, scheme) for sc, rates in instances for scheme in Scheme]
    totals = {}
    for position, result in solver._solve_batch(problems):
        totals[problems[position][3], position // len(Scheme)] = result.total_delay_s
    for seed in range(200):
        for scheme in (Scheme.CLOUD, Scheme.CLOUD_DU, Scheme.CLOUD_RU):
            assert totals[Scheme.FOG, seed] <= totals[scheme, seed] * (1 + 1e-6)


def test_extreme_capacity_scales(random_instance):
    # the iteration has no scale of its own (every step is an exact line
    # search); quality must survive capacities spread over many orders of
    # magnitude
    rng = np.random.default_rng(0)
    for trial in range(20):
        scenario, rates = random_instance(
            seed=trial, num_users=4, num_rus=2, num_dus=1,
            mecl_capacity_hz=float(10 ** rng.uniform(6, 12)),
            mech_capacity_hz=float(10 ** rng.uniform(7, 13)),
            cloud_capacity_hz=float(10 ** rng.uniform(8, 14)),
            fronthaul_capacity_hz=float(10 ** rng.uniform(5, 10)),
            midhaul_capacity_hz=float(10 ** rng.uniform(5, 10)),
        )
        topo, tasks = scenario.topology, scenario.tasks
        for scheme in Scheme:
            res = solve(topo, tasks, rates, scheme)
            assert math.isfinite(res.total_delay_s)
            assert check_feasibility(topo, tasks, res.decision, res.allocation) == []
            truth = enumerate_optimal(topo, tasks, rates, scheme)
            assert res.total_delay_s <= truth.total_delay_s * (1 + 1e-4)


def test_solve_refuses_rates_of_another_size(random_instance):
    # Every plan's total delay is added up in the finish, so a rate vector
    # that does not hold one entry per task is refused before any loop runs.
    scenario, rates = random_instance(seed=0, num_users=5)
    for bad in (rates[:4], np.append(rates, 1e7), rates[None]):
        with pytest.raises(ValueError, match="one entry per task"):
            solve(scenario.topology, scenario.tasks, bad, Scheme.FOG)


def test_solve_empty_taskset(make_topology):
    topo = make_topology(num_users=0)
    tasks = TaskSet(data_bits=np.array([]), cycles_per_bit=np.array([]))
    res = solve(topo, tasks, np.array([]), Scheme.FOG)
    assert res.decision.tiers == ()
    assert res.total_delay_s == 0.0
    assert res.converged


def test_returned_duals_price_the_returned_plan(random_instance):
    # Whatever stopped the loop, the returned duals are the returned plan's
    # clearing prices, (W/F)^2 for the pool sums W of its square-root
    # demands: 0 on every pool it does not load, and at them the shares
    # `primal_*` recover are the returned allocation's.
    families = ("mecl_speed", "mech_speed", "cloud_speed", "fronthaul_bw", "midhaul_bw")
    unloaded = 0
    for (topo, tasks, _, _), _, res in _stops(random_instance):
        pools = _Pools(tasks, topo)
        w = pools.picked_loads(pools.first + res.decision.codes)[0]
        prices = _price_vector(res.duals, topo)
        assert prices.tobytes() == ((w / pools.capacity) ** 2).tobytes()
        assert (prices[w == 0] == 0).all() and (prices[w > 0] > 0).all()
        unloaded += int((w == 0).sum())
        x = np.eye(3)[res.decision.codes]
        a, b, c = primal_speeds_from_duals(res.duals, x, tasks, topo)
        alpha, beta, gamma = primal_bandwidth_from_duals(res.duals, x, tasks, topo)
        recovered = {name: {} for name in families}
        for k, tier in enumerate(res.decision.tiers):
            if tier == "L":
                recovered["mecl_speed"][k] = a[k]
            elif tier == "H":
                recovered["mech_speed"][k], recovered["fronthaul_bw"][k] = b[k], alpha[k]
            else:
                recovered["cloud_speed"][k], recovered["fronthaul_bw"][k] = c[k], gamma[k]
                recovered["midhaul_bw"][k] = beta[k]
        for name in families:
            assert recovered[name] == pytest.approx(getattr(res.allocation, name), rel=1e-9), name
    assert unloaded > 0


# --- local-search polish ----------------------------------------------------


def _reference_local_search(codes, objective, allowed_codes, evaluate):
    """Best-improvement descent that re-scores every neighbour exactly: the
    reference the closed-form polish must reproduce bit for bit."""
    codes = codes.copy()
    n = codes.size
    while True:
        best_obj = objective
        best_move = None
        for k in range(n):
            original = codes[k]
            for code in allowed_codes:
                if code == original:
                    continue
                codes[k] = code
                value = evaluate(codes)
                if value < best_obj:
                    best_obj, best_move = value, ((k, code),)
            codes[k] = original
        if best_move is None:
            for k1 in range(n):
                original1 = codes[k1]
                for code1 in allowed_codes:
                    if code1 == original1:
                        continue
                    codes[k1] = code1
                    for k2 in range(k1 + 1, n):
                        original2 = codes[k2]
                        for code2 in allowed_codes:
                            if code2 == original2:
                                continue
                            codes[k2] = code2
                            value = evaluate(codes)
                            if value < best_obj:
                                best_obj, best_move = value, ((k1, code1), (k2, code2))
                        codes[k2] = original2
                    codes[k1] = original1
        if best_move is None:
            return codes, objective
        for k, code in best_move:
            codes[k] = code
        objective = best_obj


def _assert_polish_matches_reference(tasks, topology, rng):
    pools, stack = _Pools(tasks, topology), solver._Stack([(topology, tasks, None, Scheme.FOG)])
    n = pools.first.size
    for scheme in Scheme:
        allowed = tuple(TIER_INDEX[t] for t in scheme.allowed_tiers)
        start = rng.choice(allowed, size=n).astype(np.int64)
        objective = pools.objective(start)
        (codes,), (value,) = _local_search(start[None], [objective], allowed, stack)
        ref_codes, ref_value = _reference_local_search(start, objective, allowed, pools.objective)
        assert np.array_equal(codes, ref_codes)
        assert value == ref_value
        assert value == pools.objective(codes)


@pytest.mark.parametrize(
    "num_users, num_rus, num_dus, seeds, spec_kw",
    [
        (6, 2, 1, range(6), {}),
        (8, 4, 2, range(4), {}),
        (8, 4, 2, range(2), {"mecl_capacity_hz": (1e9, 5e9), "mech_capacity_hz": (1e10, 5e10)}),
        (40, 10, 4, range(1), {}),
    ],
)
def test_polish_matches_exact_reference(random_instance, num_users, num_rus, num_dus, seeds, spec_kw):
    rng = np.random.default_rng(num_users)
    for seed in seeds:
        scenario, _ = random_instance(seed=seed, num_users=num_users, num_rus=num_rus, num_dus=num_dus, **spec_kw)
        _assert_polish_matches_reference(scenario.tasks, scenario.topology, rng)


def test_polish_matches_exact_reference_on_tied_tasks(make_topology, make_tasks):
    # identical tasks on one RU tie every move between them; exchanges and
    # rounding in the exact scores must resolve as in the reference
    topo = make_topology(num_users=8, num_rus=2, user_to_ru=[0, 0, 0, 0, 1, 1, 1, 1],
                         mecl_capacity_hz=4e9, mech_capacity_hz=8e9, cloud_capacity_hz=2e10,
                         fronthaul_capacity_hz=5e7, midhaul_capacity_hz=5e7)
    tasks = make_tasks([1e7, 1e7, 2e7, 2e7, 1e7, 1e7, 3e7, 3e7], [5.0, 5.0, 1.0, 1.0, 5.0, 5.0, 0.5, 0.5])
    rng = np.random.default_rng(0)
    for _ in range(10):
        _assert_polish_matches_reference(tasks, topo, rng)


@pytest.mark.parametrize("num_users, num_rus, num_dus, rows", [(6, 4, 2, 32), (8, 4, 2, 36), (40, 10, 4, 8)])
def test_stacked_polish_matches_reference_row_by_row(random_instance, num_users, num_rus, num_dus, rows):
    # The finish polishes the problems of a price loop as one lockstep
    # descent per scheme: each row must take exactly the moves of the
    # exact-rescoring reference on its own problem, a cloud row has no move,
    # and rows that stop descending early do not disturb the rest.
    rng = np.random.default_rng(num_users + rows)
    schemes = [list(Scheme)[row % len(Scheme)] for row in range(rows)]
    problems = []
    for row, scheme in enumerate(schemes):
        spec_kw = {"mecl_capacity_hz": (1e9, 5e9)} if row % 3 == 0 else {}
        scenario, rates = random_instance(seed=row, num_users=num_users, num_rus=num_rus, num_dus=num_dus, **spec_kw)
        problems.append((scenario.topology, scenario.tasks, rates, scheme))
    stack = solver._Stack(problems)
    allowed = [tuple(TIER_INDEX[t] for t in scheme.allowed_tiers) for scheme in schemes]
    start = np.array([rng.choice(tiers, size=num_users) for tiers in allowed], dtype=np.int64)
    pools = [_Pools(tasks, topo) for topo, tasks, _, _ in problems]
    objective = [p.objective(codes) for p, codes in zip(pools, start)]
    codes, values = start.copy(), np.array(objective)
    for scheme in dict.fromkeys(schemes):
        rows_of = np.flatnonzero([s == scheme for s in schemes])
        codes[rows_of], values[rows_of] = _local_search(start[rows_of], values[rows_of], allowed[rows_of[0]],
                                                        stack.take(rows_of))
    assert codes.shape == start.shape and values.shape == (rows,)
    moved = 0
    for row, (p, tiers) in enumerate(zip(pools, allowed)):
        ref_codes, ref_value = _reference_local_search(start[row], objective[row], tiers, p.objective)
        assert np.array_equal(codes[row], ref_codes), row
        assert values[row] == ref_value == p.objective(codes[row]), row
        if len(tiers) == 1:
            assert np.array_equal(codes[row], start[row]) and values[row] == objective[row]
        moved += not np.array_equal(codes[row], start[row])
    assert moved >= rows // 2  # most rows descend, over different numbers of steps


def test_stack_take_of_repeated_reordered_rows(random_instance):
    # The finish polishes two starts of one problem as two rows of one
    # stack: a take of repeated, reordered rows must give each row the pool
    # sums and exact costs of that row of the whole stack, bit for bit.
    rng = np.random.default_rng(5)
    problems = []
    for row, scheme in enumerate((Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU)):
        scenario, rates = random_instance(seed=70 + row, num_users=8, num_rus=4, num_dus=2)
        problems.append((scenario.topology, scenario.tasks, rates, scheme))
    stack = solver._Stack(problems)
    codes = np.array([rng.choice([TIER_INDEX[t] for t in p[3].allowed_tiers], size=8) for p in problems])
    keep = np.array([1, 1, 0, 2, 2])
    taken = stack.take(keep)
    whole_loads, whole_costs = stack.picked_loads(stack.first + codes), stack.costs(codes)
    loads = taken.picked_loads(taken.first + codes[keep])
    assert loads.shape == (keep.size, stack.capacity.shape[1])
    assert loads.tobytes() == whole_loads[keep].tobytes()
    assert taken.costs(codes[keep]).tobytes() == whole_costs[keep].tobytes()


def test_pools_is_a_one_row_stack(random_instance):
    # One problem is a `_Stack` of one row: a take of its row twice scores
    # two plans in one call, and a block of plans scores along a leading
    # plan axis, each cost bit for bit the one `objective` gives.
    rng = np.random.default_rng(11)
    scenario, _ = random_instance(seed=12, num_users=8, num_rus=4, num_dus=2)
    pools = _Pools(scenario.tasks, scenario.topology)
    assert pools.first.shape == (1, 8) and pools.capacity.shape[0] == 1
    codes = rng.integers(0, 3, size=(5, 8))
    want = np.array([pools.objective(plan) for plan in codes])
    twice = pools.take(np.array([0, 0]))
    for pair in (codes[:2], codes[2:4], codes[[4, 4]]):
        assert twice.costs(pair).tobytes() == np.array([pools.objective(plan) for plan in pair]).tobytes()
    assert pools.costs(codes[:, None]).tobytes() == want[:, None].tobytes()


def _moves(stack, codes, tiers):
    """Every move of the polish at tier codes (B, K) under a scheme's tier
    codes, in its order (task, then tier): each move's task (N,), new codes
    (B, N) and (task, tier) entries ahead and away (B, N) each."""
    others = np.array([[t for t in tiers if t != c][: len(tiers) - 1] for c in range(3)])
    move_task = np.repeat(np.arange(codes.shape[1]), len(tiers) - 1)
    move_code = others[codes].reshape(codes.shape[0], -1)
    return move_task, move_code, stack.first[:, move_task] + move_code, (stack.first + codes)[:, move_task]


@pytest.mark.parametrize("num_users, num_rus, num_dus", [(8, 4, 2), (40, 10, 4), (200, 10, 4)])
def test_polish_move_scores_match_the_exact_scorer(random_instance, num_users, num_rus, num_dus):
    # The polish scores a single move from its own pool entries and a pair
    # from the two moves' pool shifts; both must equal the change of the
    # exact plan cost, costs(after) - costs(before), to 1e-12 of the
    # objective, for random plans under every scheme with moves, H <-> C
    # moves (which leave and join the RU's one fronthaul pool) included.
    rng = np.random.default_rng(num_users)
    shared = 0
    for scheme in (Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU):  # a one-tier scheme has no move
        tiers = tuple(TIER_INDEX[t] for t in scheme.allowed_tiers)
        problems = []
        for row in range(2):
            scenario, rates = random_instance(seed=40 + row, num_users=num_users, num_rus=num_rus, num_dus=num_dus)
            problems.append((scenario.topology, scenario.tasks, rates, scheme))
        stack = solver._Stack(problems)
        codes = rng.choice(tiers, size=(2, num_users))
        before = stack.costs(codes)
        move_task, move_code, ahead, away = _moves(stack, codes, tiers)
        single = _move_changes(stack, stack.picked_loads(stack.first + codes), ahead, away)
        after = np.repeat(codes[None], move_task.size, axis=0)  # one plan per move: (N, B, K)
        after[np.arange(move_task.size), :, move_task] = move_code.T
        exact = (stack.costs(after) - before).T
        assert np.all(np.abs(single - exact) <= 1e-12 * before[:, None]), scheme
        shared += np.count_nonzero((codes[:, move_task] != TIER_INDEX["L"]) & (move_code != TIER_INDEX["L"]))
        # The first block of pair scores, sampled: k1 < k2 scored, the rest +inf.
        offset, block = next(_pair_blocks(stack, single, ahead, away, move_task))
        m = move_task.size
        assert offset == 0 and block.shape == (2, min(m, solver._PAIR_BLOCK_ROWS) * m)
        sample = rng.choice(block.shape[1], size=min(block.shape[1], 300), replace=False)
        first, second = np.divmod(sample, m)
        counted = move_task[first] < move_task[second]
        assert np.all(np.isinf(block[:, sample[~counted]]))
        first, second = first[counted], second[counted]
        after = np.repeat(codes[None], first.size, axis=0)
        after[np.arange(first.size), :, move_task[first]] = move_code[:, first].T
        after[np.arange(first.size), :, move_task[second]] = move_code[:, second].T
        exact = (stack.costs(after) - before).T
        assert np.all(np.abs(block[:, sample[counted]] - exact) <= 1e-12 * before[:, None]), scheme
    assert shared > 0  # H <-> C moves were scored


def test_finish_keeps_the_better_of_the_two_polished_starts(random_instance):
    # The finish polishes each problem's incumbent and its rounded last
    # iterate in one lockstep descent and keeps the better result, the
    # incumbent's on a tie; each descent is the exact-rescoring reference's.
    # Here the incumbent is random and the second start is the optimum, or
    # for every third problem the incumbent itself.
    rng = np.random.default_rng(9)
    problems = []
    for row in range(40):
        scenario, rates = random_instance(seed=200 + row, num_users=6, num_rus=4, num_dus=2)
        problems.append((scenario.topology, scenario.tasks, rates, list(Scheme)[row % len(Scheme)]))
    stack = solver._Stack(problems)
    allowed = [tuple(TIER_INDEX[t] for t in problem[3].allowed_tiers) for problem in problems]
    incumbent = np.array([rng.choice(tiers, size=6) for tiers in allowed])
    optimum = np.array([enumerate_optimal(*problem).decision.codes for problem in problems])
    optimum[::3] = incumbent[::3]
    pools = [_Pools(tasks, topo) for topo, tasks, _, _ in problems]
    objective = np.array([p.objective(codes) for p, codes in zip(pools, incumbent)])
    traces, ones = [np.zeros((1, 4))] * len(problems), np.ones(len(problems), dtype=np.int64)
    chunk = list(enumerate(problems))
    plans = dict(solver._finish(stack, chunk, allowed, (incumbent, optimum), objective, traces, ones, ones > 0))
    wins = 0
    for row, (p, tiers) in enumerate(zip(pools, allowed)):
        found = [_reference_local_search(start[row], p.objective(start[row]), tiers, p.objective)
                 for start in (incumbent, optimum)]
        want = found[1] if found[1][1] < found[0][1] else found[0]
        assert np.array_equal(plans[row].codes, want[0]) and plans[row].objective_s == want[1], row
        wins += found[1][1] < found[0][1]
    assert wins  # the second start wins somewhere


def test_plan_totals_match_the_public_total_delay(random_instance):
    # A sweep reads only each plan's total delay, which the finish adds up
    # from arrays; it must equal the public total of the public exact
    # allocation bit for bit, a zero-rate user included (inf).
    rng = np.random.default_rng(3)
    checked = 0
    for seed in range(26):
        num_users = (6, 8, 40)[seed % 3]
        num_rus, num_dus = (10, 4) if num_users == 40 else (4, 2)
        scenario, rates = random_instance(seed=seed, num_users=num_users, num_rus=num_rus, num_dus=num_dus)
        topo, tasks = scenario.topology, scenario.tasks
        rates = np.array([rates] * 8)
        rates[seed % 8, seed % num_users] = 0.0
        stack = solver._Stack([(topo, tasks, rates[0], Scheme.FOG)] * 8)
        codes = rng.integers(0, 3, size=(8, num_users))
        _, totals = solver._exact_totals(stack, codes, rates)
        for row in range(8):
            decision = Decision(tuple(TIERS[c] for c in codes[row]))
            want = total_delay(topo, tasks, decision, allocate_given_decision(decision, tasks, topo), rates[row])
            assert totals[row] == want
            checked += 1
        assert math.isinf(totals[seed % 8])
    assert checked >= 200


def test_shares_of_an_extreme_pool_stay_finite_and_bit_equal():
    # Each share is F (sqrt(d) / W): the fraction is at most 1, so a share
    # never overflows where F sqrt(d) would (a 5.87e242 Hz midhaul over
    # demands near 1e213), and the finish's totals still equal the public
    # total of the public exact allocation bit for bit.
    from fogplan.cli import _realize

    spec = ScenarioSpec(num_users=6, num_rus=1, num_dus=1, seed=238, mech_capacity_hz=5.58e-14,
                        midhaul_capacity_hz=5.87e242, midhaul_se=6.75e-214)
    scenario, rates = _realize(spec, DEFAULT_NUM_ANTENNAS)
    topo, tasks = scenario.topology, scenario.tasks
    res = solve(topo, tasks, rates, Scheme.CLOUD)
    exact = allocate_given_decision(res.decision, tasks, topo)
    assert exact == res.allocation and all(0 < v <= 5.87e242 for v in exact.midhaul_bw.values())
    assert res.total_delay_s == total_delay(topo, tasks, res.decision, exact, rates)
    codes = np.array([res.decision.codes])
    _, totals = solver._exact_totals(solver._Stack([(topo, tasks, rates, Scheme.CLOUD)]), codes, rates[None])
    assert totals[0] == res.total_delay_s


def test_plan_totals_refuse_a_share_allocation_refuses(random_instance, monkeypatch, capsys):
    # A share that is not strictly positive and finite is refused as
    # `Allocation` refuses it, so a sweep exits 2 with a diagnostic.
    scenario, rates = random_instance(seed=1, num_users=6, num_rus=4, num_dus=2)
    stack = solver._Stack([(scenario.topology, scenario.tasks, rates, Scheme.FOG)])
    codes = np.zeros((1, 6), dtype=np.int64)
    for capacity in (0.0, np.inf, np.nan):
        stack.capacity[0, scenario.topology.user_to_ru[0]] = capacity
        with pytest.raises(ValueError, match=r"mecl_speed\[0\] = .* must be strictly positive and finite"):
            solver._exact_totals(stack, codes, rates[None])
    shares = solver._shares
    def zero_shares(*args):  # every used share 0, unused ones left infinite
        loads, share = shares(*args)
        return loads, np.where(share < np.inf, 0.0, share)

    monkeypatch.setattr(solver, "_shares", zero_shares)
    argv = ["--sweep", "fl=1e9:5e9:2", "--users", "6", "--rus", "4", "--dus", "2", "--scheme", "fog"]
    assert cli_main(argv) == 2
    assert "must be strictly positive and finite" in capsys.readouterr().err


def test_pair_move_delta_identity(random_instance):
    # two moves that shift the pool sums W by d1 and d2 change sum W^2/F by
    # D1 + D2 + 2 sum d1 d2 / F, where Di is each move's own change
    scenario, _ = random_instance(seed=3, num_users=6, num_rus=2, num_dus=2)
    topo, tasks = scenario.topology, scenario.tasks
    pools = _Pools(tasks, topo)
    inv_cap = 1.0 / np.concatenate(
        (topo.mecl_capacity_hz, topo.mech_capacity_hz, [topo.cloud_capacity_hz],
         topo.fronthaul_capacity_hz, topo.midhaul_capacity_hz)
    )

    def loads(codes):
        return pools.picked_loads(pools.first + codes)

    def moved(codes, *moves):
        out = codes.copy()
        for k, code in moves:
            out[k] = code
        return out

    ru, du = topo.user_to_ru, topo.user_du
    apart = [(k1, k2) for k1 in range(6) for k2 in range(k1 + 1, 6) if ru[k1] != ru[k2] and du[k1] != du[k2]]
    together = [(k1, k2) for k1 in range(6) for k2 in range(k1 + 1, 6) if ru[k1] == ru[k2]]
    assert apart and together
    rng = np.random.default_rng(5)
    L, H, C = (TIER_INDEX[t] for t in "LHC")
    cases = [((k1, L, H), (k2, L, H), False) for k1, k2 in apart]  # disjoint MEC and fronthaul pools
    cases += [((k1, L, C), (k2, H, C), True) for k1, k2 in together]  # shared cloud and fronthaul
    cases += [((k1, L, H), (k2, L, C), True) for k1, k2 in together]
    for (k1, from1, to1), (k2, from2, to2), shared in cases:
        codes = rng.choice([L, H, C], size=6).astype(np.int64)
        codes[k1], codes[k2] = from1, from2
        w = loads(codes)
        d1 = loads(moved(codes, (k1, to1))) - w
        d2 = loads(moved(codes, (k2, to2))) - w
        delta1 = (2 * w * d1 + d1 * d1) @ inv_cap
        delta2 = (2 * w * d2 + d2 * d2) @ inv_cap
        cross = 2 * (d1 * d2) @ inv_cap
        assert (cross != 0) == shared
        exact = pools.objective(moved(codes, (k1, to1), (k2, to2))) - pools.objective(codes)
        assert delta1 + delta2 + cross == pytest.approx(exact, rel=1e-12)


def test_polish_work_stays_small_at_k200(random_instance, monkeypatch):
    # the polish scores neighbours in closed form and re-scores only near-best
    # candidates exactly; re-scoring every neighbour would take ~80k evaluations
    # per pair pass at this size
    num_users = 200
    scenario, rates = random_instance(seed=0, num_users=num_users, num_rus=10, num_dus=4)
    # Every cost goes through `_cost`: the loop's (one for the single-tier
    # plans, then two per iteration: the relaxed iterate and the forward
    # vertex), the finish's (one for the rounded last iterate, where it is
    # not the incumbent) and the polish's.
    counts = {"loop": 0, "polish": 0}
    in_polish = False
    original_cost = solver._cost
    original_search = solver._local_search

    def counting_cost(loads, capacity):
        counts["polish" if in_polish else "loop"] += 1
        return original_cost(loads, capacity)

    def flagged_search(*args):
        nonlocal in_polish
        in_polish = True
        try:
            return original_search(*args)
        finally:
            in_polish = False

    monkeypatch.setattr(solver, "_cost", counting_cost)
    monkeypatch.setattr(solver, "_local_search", flagged_search)
    res = solve(scenario.topology, scenario.tasks, rates, Scheme.FOG)
    assert check_feasibility(scenario.topology, scenario.tasks, res.decision, res.allocation) == []
    assert counts["loop"] - 2 * res.iterations in (1, 2)
    assert 1 <= counts["polish"] <= num_users


# --- weak duality --------------------------------------------------------------


def test_dual_values_stay_below_independent_relaxed_optimum(random_instance, monkeypatch):
    # Every dual value lies below scipy's relaxed optimum, which lies below
    # the plan; and the loop stops (converged) with its relaxed objective
    # within epsilon of it.
    scenario, rates = random_instance(seed=16, num_users=3, num_rus=2, num_dus=1)
    topo, tasks = scenario.topology, scenario.tasks
    iterates = _record_iterates(monkeypatch)
    res = solve(topo, tasks, rates, Scheme.FOG)
    stopped = _assert_gap_rule(res, iterates, _Pools(tasks, topo).capacity, SolverConfig())[-1]

    ru, du = topo.user_to_ru, topo.user_du
    su = np.sqrt(tasks.compute_cycles)
    sv = np.sqrt(tasks.data_bits / topo.fronthaul_se[ru])
    sw = np.sqrt(tasks.data_bits / topo.midhaul_se[du])

    def reduced_objective(xflat):
        x = xflat.reshape(-1, 3)
        cost = 0.0
        for i in range(topo.num_rus):
            m = ru == i
            cost += (x[m, 0] @ su[m]) ** 2 / topo.mecl_capacity_hz[i]
            cost += ((x[m, 1] + x[m, 2]) @ sv[m]) ** 2 / topo.fronthaul_capacity_hz[i]
        for j in range(topo.num_dus):
            m = du == j
            cost += (x[m, 1] @ su[m]) ** 2 / topo.mech_capacity_hz[j]
            cost += (x[m, 2] @ sw[m]) ** 2 / topo.midhaul_capacity_hz[j]
        cost += (x[:, 2] @ su) ** 2 / topo.cloud_capacity_hz
        return cost

    n = tasks.num_tasks
    simplex = np.zeros((n, 3 * n))
    for k in range(n):
        simplex[k, 3 * k : 3 * k + 3] = 1.0
    best = math.inf
    rng = np.random.default_rng(0)
    for _ in range(10):
        start = rng.dirichlet(np.ones(3), size=n).reshape(-1)
        r = minimize(
            reduced_objective, start, method="SLSQP", bounds=[(0, 1)] * (3 * n),
            constraints=[LinearConstraint(simplex, 1, 1)], options={"maxiter": 300, "ftol": 1e-14},
        )
        if r.success:
            best = min(best, r.fun)
    assert np.all(res.trace["dual_value_s"] <= best * (1 + 1e-6) + 1e-12)
    assert res.best_dual_value_s <= best * (1 + 1e-6)
    assert best <= res.objective_s * (1 + 1e-9)
    epsilon = SolverConfig().epsilon
    assert res.converged and best * (1 - 1e-9) <= stopped <= best + epsilon * stopped

    # weak duality at other prices than the loop's: random positive price
    # vectors within a factor e of the returned ones
    prices, starts = _price_vector(res.duals, topo), _Pools(tasks, topo).starts
    values = []
    for _ in range(50):
        duals = _dual_state(prices * np.exp(rng.uniform(-1, 1, prices.size)), starts)
        values.append(_dual_value_at(duals, tasks, topo, Scheme.FOG))
    assert max(values) <= best * (1 + 1e-6)
    assert max(values) > 0.5 * best  # some draws come close, so the check is not vacuous


def test_trace_duals_stay_below_the_plans_across_a_stacked_batch(random_instance):
    # Weak duality on every trace entry of a stacked batch of 60 desk
    # problems (15 instances x 4 schemes): each dual value lies below the
    # best objective so far, which is at most the candidate scored at that
    # iteration, and below the returned plan's objective.
    problems = []
    for seed in range(15):
        scenario, rates = random_instance(seed=100 + seed, num_users=8, num_rus=4, num_dus=2)
        problems += [(scenario.topology, scenario.tasks, rates, scheme) for scheme in Scheme]
    entries = 0
    for position, plan in solver._solve_batch(problems, trace=True):
        res = solver._result(plan, problems[position])
        dual = res.trace["dual_value_s"]
        best = res.trace["best_objective_s"]
        assert np.all(dual <= best + 1e-9 * np.abs(best)), position
        assert res.best_dual_value_s == dual.max() <= res.objective_s * (1 + 1e-12), position
        assert check_feasibility(*problems[position][:2], res.decision, res.allocation) == []
        entries += dual.size
    assert entries >= 60


@pytest.mark.parametrize("mecl_capacity_hz", [1e100, 1e150])
@pytest.mark.parametrize("scheme", [Scheme.FOG, Scheme.CLOUD_RU])
def test_extreme_ru_capacity_is_certified_by_the_gap_rule(monkeypatch, mecl_capacity_hz, scheme):
    # `fogplan --seed 2 --users 4 --rus 2 --dus 1 --set fl=1e100` once
    # printed converged=True with duality_gap=3.68e+78: a stability rule set
    # the flag, whatever the bound.  The RU MEC pools are then free, every
    # plan keeps weak duality, the certified gap closes, and converged comes
    # from the relaxed gap rule alone.
    from fogplan.cli import _realize

    spec = ScenarioSpec(num_users=4, num_rus=2, num_dus=1, seed=2, mecl_capacity_hz=mecl_capacity_hz)
    scenario, rates = _realize(spec, DEFAULT_NUM_ANTENNAS)
    topo, tasks = scenario.topology, scenario.tasks
    iterates = _record_iterates(monkeypatch)
    res = solve(topo, tasks, rates, scheme)
    _assert_gap_rule(res, iterates, _Pools(tasks, topo).capacity, SolverConfig())
    best = res.trace["best_objective_s"]
    assert np.all(res.trace["dual_value_s"] <= best + 1e-9 * best)
    assert res.best_dual_value_s <= res.objective_s * (1 + 1e-12)  # equal but for rounding: the relaxation is tight
    assert res.converged and res.duality_gap <= 1e-3
    assert check_feasibility(topo, tasks, res.decision, res.allocation) == []


def test_a_price_below_the_normal_range_keeps_weak_duality():
    # An RU MEC pool of 2.3e165 Hz prices its demand near 1e-322, below the
    # normal float range, where a price keeps a digit or two: that price
    # times the capacity would lift the dual value 1.4% above the plan it
    # bounds, so such a pool is priced as W (W / F).
    from fogplan.cli import _realize

    spec = ScenarioSpec(num_users=3, num_rus=1, num_dus=1, seed=365106, uplink_bandwidth_hz=5.46038e-157,
                        mecl_capacity_hz=2.28775e165, fronthaul_se=6.48101e108)
    scenario, rates = _realize(spec, DEFAULT_NUM_ANTENNAS)
    res = solve(scenario.topology, scenario.tasks, rates, Scheme.CLOUD_RU)
    assert 0 < res.trace["dual_value_s"].max() == res.best_dual_value_s <= res.objective_s


def test_solve_builds_its_pools_once(random_instance, monkeypatch):
    # The finish hands `_result` each plan's clearing prices, so `solve`
    # builds `_Pools` only inside the public `allocate_given_decision`.
    built = []

    class CountingPools(solver._Pools):
        def __init__(self, tasks, topology):
            built.append(tasks)
            super().__init__(tasks, topology)

    monkeypatch.setattr(solver, "_Pools", CountingPools)
    scenario, rates = random_instance(seed=4, num_users=8, num_rus=4, num_dus=2)
    solve(scenario.topology, scenario.tasks, rates, Scheme.FOG)
    assert len(built) == 1


# --- configuration and containers -------------------------------------------


def test_config_validation():
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="epsilon"):
            SolverConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)


def test_dualstate_validation():
    with pytest.raises(ValueError, match="mu"):
        DualState(mu=np.array([-1.0]), lam=np.array([1.0]), rho=1.0, nu=np.array([1.0]), xi=np.array([1.0]))
    with pytest.raises(ValueError, match="rho"):
        _duals(rho=-0.1)


def test_initial_duals_make_full_load_tight(make_topology, make_tasks):
    # The loop starts from each task spread evenly over its allowed tiers; at
    # that iterate's stationary prices (W / F)^2 its shares fill every pool
    # it loads exactly.
    topo = make_topology(num_users=2, mecl_capacity_hz=4.0)
    tasks = make_tasks([4.0, 4.0], [1.0, 1.0])  # sqrt demand 2 each
    [prices] = _starting_prices([(topo, tasks, None, Scheme.FOG)])
    init = _dual_state(prices, _Pools(tasks, topo).starts)
    assert init.mu[0] == pytest.approx(1.0 / 9.0)  # (2/3 + 2/3) / 4 squared
    x = np.full((2, 3), 1.0 / 3.0)
    a, b, c = primal_speeds_from_duals(init, x, tasks, topo)
    assert a.sum() == pytest.approx(4.0)
    assert b.sum() == pytest.approx(topo.mech_capacity_hz[0]) and c.sum() == pytest.approx(topo.cloud_capacity_hz)
