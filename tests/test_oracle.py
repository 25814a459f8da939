import itertools

import numpy as np
import pytest
from scipy.optimize import minimize

from fogplan import (
    Decision,
    Scheme,
    allocate_given_decision,
    enumerate_optimal,
    total_delay,
)
from fogplan import solver
from fogplan.phy import access_delay


def _delay_of(decision, topo, tasks, rates):
    """Exact minimal total delay under a fixed assignment."""
    return total_delay(topo, tasks, decision, allocate_given_decision(decision, tasks, topo), rates)


def test_single_task_prefers_cloud_when_compute_dominates(make_topology, make_tasks):
    topo = make_topology(
        fronthaul_capacity_hz=1e12,
        midhaul_capacity_hz=1e12,
        mecl_capacity_hz=1e8,
        mech_capacity_hz=1e9,
        cloud_capacity_hz=1e13,
    )
    tasks = make_tasks(1e7, 5.0)
    out = enumerate_optimal(topo, tasks, [1e8], Scheme.FOG)
    assert out.decision.tiers == ("C",)


def test_single_task_prefers_local_when_fronthaul_is_tiny(make_topology, make_tasks):
    topo = make_topology(fronthaul_capacity_hz=1e3, mecl_capacity_hz=2e9)
    tasks = make_tasks(1e7, 1.0)
    out = enumerate_optimal(topo, tasks, [1e8], Scheme.FOG)
    assert out.decision.tiers == ("L",)


def _pool_min_delay(demands, capacity):
    """Numeric convex search for min sum(demand/share) with sum(share) <= capacity."""
    n = len(demands)
    if n == 0:
        return 0.0
    result = minimize(
        lambda f: float(np.sum(np.asarray(demands) / f)),
        np.full(n, capacity / n),
        method="SLSQP",
        bounds=[(capacity * 1e-9, capacity)] * n,
        constraints=[{"type": "ineq", "fun": lambda f: capacity - np.sum(f)}],
        options={"maxiter": 500, "ftol": 1e-16},
    )
    return float(result.fun)


def _independent_brute_force(topo, tasks, rates, scheme):
    """Second oracle: enumerate decisions, numerically optimize every pool."""
    n = tasks.num_tasks
    best = np.inf
    best_tiers = None
    access = sum(access_delay(float(tasks.data_bits[k]), float(rates[k])) for k in range(n))
    for tiers in itertools.product(scheme.allowed_tiers, repeat=n):
        total = access
        for i in range(topo.num_rus):
            users = [k for k in range(n) if topo.user_to_ru[k] == i]
            total += _pool_min_delay(
                [tasks.compute_cycles[k] for k in users if tiers[k] == "L"],
                topo.mecl_capacity_hz[i],
            )
            total += _pool_min_delay(
                [tasks.data_bits[k] / topo.fronthaul_se[i] for k in users if tiers[k] in "HC"],
                topo.fronthaul_capacity_hz[i],
            )
        for j in range(topo.num_dus):
            users = [k for k in range(n) if topo.user_du[k] == j]
            total += _pool_min_delay(
                [tasks.compute_cycles[k] for k in users if tiers[k] == "H"],
                topo.mech_capacity_hz[j],
            )
            total += _pool_min_delay(
                [tasks.data_bits[k] / topo.midhaul_se[j] for k in users if tiers[k] == "C"],
                topo.midhaul_capacity_hz[j],
            )
        total += _pool_min_delay(
            [tasks.compute_cycles[k] for k in range(n) if tiers[k] == "C"],
            topo.cloud_capacity_hz,
        )
        if total < best:
            best = total
            best_tiers = tiers
    return best_tiers, best


def test_matches_independent_double_oracle(random_instance):
    scenario, rates = random_instance(seed=33, num_users=3, num_rus=2, num_dus=1)
    topo, tasks = scenario.topology, scenario.tasks
    ours = enumerate_optimal(topo, tasks, rates, Scheme.FOG)
    tiers, value = _independent_brute_force(topo, tasks, rates, Scheme.FOG)
    assert ours.total_delay_s == pytest.approx(value, rel=1e-6)
    assert ours.decision.tiers == tiers


def test_objective_of_all_cloud_equals_cloud_scheme_optimum(random_instance):
    scenario, rates = random_instance(seed=8, num_users=5)
    topo, tasks = scenario.topology, scenario.tasks
    out = enumerate_optimal(topo, tasks, rates, Scheme.CLOUD)
    value = _delay_of(Decision(("C",) * 5), topo, tasks, rates)
    assert out.total_delay_s == pytest.approx(value, rel=1e-12)
    assert out.decision.tiers == ("C",) * 5


def test_any_decision_is_no_better_than_the_optimum(random_instance):
    rng = np.random.default_rng(2)
    scenario, rates = random_instance(seed=10, num_users=5, num_rus=2, num_dus=2)
    topo, tasks = scenario.topology, scenario.tasks
    best = enumerate_optimal(topo, tasks, rates, Scheme.FOG).total_delay_s
    for _ in range(40):
        decision = Decision(tuple(rng.choice(["L", "H", "C"], size=5)))
        assert _delay_of(decision, topo, tasks, rates) >= best - 1e-12


def test_optimum_monotone_in_capacities(random_instance):
    import dataclasses

    from fogplan import ScenarioSpec, generate_channels, generate_scenario, uplink_rates

    base = ScenarioSpec(num_users=4, num_rus=2, num_dus=1, seed=77)
    fields = [
        "mecl_capacity_hz",
        "mech_capacity_hz",
        "fronthaul_capacity_hz",
        "midhaul_capacity_hz",
        "cloud_capacity_hz",
    ]
    for field in fields:
        totals = []
        for factor in (1.0, 2.0, 5.0):
            spec = dataclasses.replace(base, **{field: getattr(base, field) * factor})
            scenario = generate_scenario(spec)
            channels = generate_channels(
                scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, seed=5
            )
            rates = uplink_rates(scenario.topology, channels)
            totals.append(enumerate_optimal(scenario.topology, scenario.tasks, rates, Scheme.FOG).total_delay_s)
        assert totals[0] >= totals[1] >= totals[2], (field, totals)


def test_nested_schemes_dominate_exactly(random_instance):
    for seed in range(20):
        scenario, rates = random_instance(seed=seed, num_users=4, num_rus=2, num_dus=1)
        topo, tasks = scenario.topology, scenario.tasks
        opt = {s: enumerate_optimal(topo, tasks, rates, s).total_delay_s for s in Scheme}
        assert opt[Scheme.FOG] <= opt[Scheme.CLOUD_RU] <= opt[Scheme.CLOUD]
        assert opt[Scheme.FOG] <= opt[Scheme.CLOUD_DU] <= opt[Scheme.CLOUD]


def test_equal_decisions_give_the_solver_total_bit_for_bit(random_instance):
    # The oracle totals its optimum as `solve` totals its plan, through
    # `total_delay` of the exact allocation, so wherever the two pick the
    # same assignment their totals are the same float.  The 200 x 4 problems,
    # 50 at each K from 3 to 6, are planned as one batch stream, and
    # `_result` makes each plan the `SolveResult` its single solve returns.
    problems = []
    for seed in range(200):
        scenario, rates = random_instance(seed=seed, num_users=3 + seed // 50, num_rus=2, num_dus=2)
        problems += [(scenario.topology, scenario.tasks, rates, scheme) for scheme in Scheme]
    matched = 0
    for position, plan in solver._solve_batch(problems, trace=True):
        result = solver._result(plan, problems[position])
        truth = enumerate_optimal(*problems[position])
        if result.decision == truth.decision:
            assert result.total_delay_s == truth.total_delay_s, position
            matched += 1
    assert matched >= 700


def test_enumeration_cap_is_enforced(random_instance):
    scenario, rates = random_instance(seed=1, num_users=7, num_rus=2, num_dus=1)
    with pytest.raises(ValueError, match="solver.solve"):
        enumerate_optimal(scenario.topology, scenario.tasks, rates, Scheme.FOG, cap=729)
    # 3^7 fits under a raised cap
    out = enumerate_optimal(scenario.topology, scenario.tasks, rates, Scheme.FOG, cap=3**7)
    assert len(out.decision.tiers) == 7


def test_ties_resolve_lexicographically(make_topology, make_tasks):
    # two identical tasks at one RU: (L, C) and (C, L) cost the same, the
    # lexicographically first assignment must win
    topo = make_topology(num_users=2)
    tasks = make_tasks([1e7, 1e7], [1.0, 1.0])
    out = enumerate_optimal(topo, tasks, [1e8, 1e8], Scheme.FOG)
    mirrored = Decision(tuple(reversed(out.decision.tiers)))
    assert _delay_of(mirrored, topo, tasks, [1e8, 1e8]) == pytest.approx(out.total_delay_s, rel=1e-12)
    candidates = [
        tiers
        for tiers in itertools.product(("L", "H", "C"), repeat=2)
        if _delay_of(Decision(tiers), topo, tasks, [1e8, 1e8])
        == pytest.approx(out.total_delay_s, rel=1e-12)
    ]
    assert out.decision.tiers == candidates[0]
