import math

import numpy as np
import pytest

from fogplan import Allocation, Decision, Scheme, allocate_given_decision, check_feasibility, task_delay, total_delay
from fogplan.phy import access_delay


def test_h_tier_example(make_topology, make_tasks):
    # every leg contributes exactly one second
    topo = make_topology(fronthaul_se=3.0)
    tasks = make_tasks(30e6, 1.0)
    alloc = Allocation(fronthaul_bw={0: 10e6}, mech_speed={0: 30e6})
    out = task_delay(topo, tasks, 0, "H", alloc, access_rate_bps=30e6)
    assert out.access_s == pytest.approx(1.0)
    assert out.fronthaul_s == pytest.approx(1.0)
    assert out.midhaul_s == 0.0
    assert out.compute_s == pytest.approx(1.0)
    assert out.total_s == pytest.approx(3.0)


def test_l_tier_example(make_topology, make_tasks):
    topo = make_topology(mecl_capacity_hz=2e9)
    tasks = make_tasks(2e8, 10.0)  # 2 Gcycles
    alloc = Allocation(mecl_speed={0: 2e9})
    out = task_delay(topo, tasks, 0, "L", alloc, access_rate_bps=4e8)
    assert out.access_s == pytest.approx(0.5)
    assert out.fronthaul_s == 0.0 and out.midhaul_s == 0.0
    assert out.compute_s == pytest.approx(1.0)
    assert out.total_s == pytest.approx(1.5)


def test_c_tier_matches_independent_recompute(make_topology, make_tasks):
    rng = np.random.default_rng(7)
    for _ in range(50):
        bits = rng.uniform(5e6, 30e6)
        density = rng.uniform(0.1, 10.0)
        se_fh, se_mh = rng.uniform(1, 6, size=2)
        bw_fh, bw_mh = rng.uniform(1e6, 1e8, size=2)
        speed = rng.uniform(1e8, 1e12)
        rate = rng.uniform(1e6, 1e9)
        topo = make_topology(fronthaul_se=se_fh, midhaul_se=se_mh)
        tasks = make_tasks(bits, density)
        alloc = Allocation(fronthaul_bw={0: bw_fh}, midhaul_bw={0: bw_mh}, cloud_speed={0: speed})
        out = task_delay(topo, tasks, 0, "C", alloc, access_rate_bps=rate)
        # second, independently written evaluation of the cloud path
        expected = (
            bits / rate
            + bits / (bw_fh * se_fh)
            + bits / (bw_mh * se_mh)
            + (density * bits) / speed
        )
        assert out.total_s == pytest.approx(expected, rel=1e-12)
        assert out.total_s == pytest.approx(
            out.access_s + out.fronthaul_s + out.midhaul_s + out.compute_s, rel=1e-12
        )


@pytest.mark.parametrize(
    "tier,alloc,missing",
    [
        ("L", Allocation(), "mecl_speed"),
        ("H", Allocation(fronthaul_bw={0: 1e6}), "mech_speed"),
        ("H", Allocation(mech_speed={0: 1e9}), "fronthaul_bw"),
        ("C", Allocation(fronthaul_bw={0: 1e6}, midhaul_bw={0: 1e6}), "cloud_speed"),
        ("C", Allocation(fronthaul_bw={0: 1e6}, cloud_speed={0: 1e9}), "midhaul_bw"),
    ],
)
def test_missing_allocation_component_is_named(make_topology, make_tasks, tier, alloc, missing):
    topo = make_topology()
    tasks = make_tasks(1e7, 1.0)
    with pytest.raises(ValueError, match=missing):
        task_delay(topo, tasks, 0, tier, alloc, access_rate_bps=1e7)


def test_link_legs_at_extreme_rates_are_ieee_without_warnings(make_topology, make_tasks):
    # A share times a spectral efficiency that overflows is an infinite rate
    # and a leg of 0 s; one that underflows to 0 is a leg of inf s.  Both are
    # numpy's IEEE quotients, reached without a RuntimeWarning, which the
    # suite makes an error.
    topo = make_topology(fronthaul_se=1e200, midhaul_se=1e-200)
    tasks = make_tasks(1e6, 1.0)
    alloc = Allocation(cloud_speed={0: 1e9}, fronthaul_bw={0: 1e200}, midhaul_bw={0: 1e-200})
    out = task_delay(topo, tasks, 0, "C", alloc, access_rate_bps=1e7)
    with np.errstate(over="ignore", divide="ignore"):
        bits, wide, narrow = np.float64(1e6), np.float64(1e200), np.float64(1e-200)
        assert (out.fronthaul_s, out.midhaul_s) == (bits / (wide * wide), bits / (narrow * narrow)) == (0.0, math.inf)
    assert total_delay(topo, tasks, Decision(("C",)), alloc, [1e7]) == math.inf
    alloc = Allocation(mech_speed={0: 1e9}, fronthaul_bw={0: 1e200})
    assert task_delay(topo, tasks, 0, "H", alloc, access_rate_bps=1e7).fronthaul_s == 0.0


def _reference_legs(topo, tasks, k, tier, alloc, rate):
    """Task k's access, fronthaul, midhaul and compute seconds in Python
    floats, leg by leg: the reference the array kernel must match bit for
    bit.  A link rate that underflows to 0 takes inf s."""
    bits, cycles = float(tasks.data_bits[k]), float(tasks.compute_cycles[k])
    ru = int(topo.user_to_ru[k])
    du = int(topo.ru_to_du[ru])

    def link(shares, se):
        rate = shares[k] * float(se)
        return bits / rate if rate else math.inf

    fronthaul = link(alloc.fronthaul_bw, topo.fronthaul_se[ru]) if tier != "L" else 0.0
    midhaul = link(alloc.midhaul_bw, topo.midhaul_se[du]) if tier == "C" else 0.0
    speed = {"L": alloc.mecl_speed, "H": alloc.mech_speed, "C": alloc.cloud_speed}[tier][k]
    return access_delay(bits, float(rate)), fronthaul, midhaul, cycles / speed


def test_delay_legs_match_a_python_float_reference(random_instance):
    # Every leg of every task and every total, over random plans with their
    # exact shares and some zero rates, equal the Python-float reference
    # bit for bit: legs added in order per task, tasks in task order.
    rng = np.random.default_rng(11)
    for seed in range(20):
        scenario, rates = random_instance(seed=seed, num_users=8, num_rus=4, num_dus=2)
        topo, tasks = scenario.topology, scenario.tasks
        rates = np.where(rng.random(8) < 0.1, 0.0, rates)
        decision = Decision(tuple(rng.choice(["L", "H", "C"], size=8)))
        alloc = allocate_given_decision(decision, tasks, topo)
        total = 0.0
        for k, tier in enumerate(decision.tiers):
            legs = _reference_legs(topo, tasks, k, tier, alloc, rates[k])
            out = task_delay(topo, tasks, k, tier, alloc, rates[k])
            assert (out.access_s, out.fronthaul_s, out.midhaul_s, out.compute_s) == legs
            assert out.total_s == legs[0] + legs[1] + legs[2] + legs[3]
            total += out.total_s
        assert total_delay(topo, tasks, decision, alloc, rates) == total


def test_zero_rate_marks_infeasible(make_topology, make_tasks):
    topo = make_topology()
    tasks = make_tasks(1e7, 1.0)
    out = task_delay(topo, tasks, 0, "L", Allocation(mecl_speed={0: 1e9}), access_rate_bps=0.0)
    assert out.access_s == math.inf and out.total_s == math.inf


def test_feasible_at_exact_capacity(make_topology, make_tasks):
    # boundary is admitted: the constraints are <=
    topo = make_topology(num_users=2, cloud_capacity_hz=5e9)
    tasks = make_tasks([1e7, 2e7], [1.0, 1.0])
    decision = Decision(("C", "C"))
    alloc = Allocation(
        cloud_speed={0: 2e9, 1: 3e9},
        fronthaul_bw={0: 1e8, 1: 2e8},
        midhaul_bw={0: 2e8, 1: 3e8},
    )
    assert check_feasibility(topo, tasks, decision, alloc) == []


@pytest.mark.parametrize(
    "constraint,decision,alloc",
    [
        ("C3", ("L",), Allocation(mecl_speed={0: 2e9 + 1e3})),
        ("C4", ("H",), Allocation(mech_speed={0: 25e9 * 1.01}, fronthaul_bw={0: 1e6})),
        ("C5", ("C",), Allocation(cloud_speed={0: 5e12 * 1.001}, fronthaul_bw={0: 1e6}, midhaul_bw={0: 1e6})),
        ("C6", ("H",), Allocation(mech_speed={0: 1e9}, fronthaul_bw={0: 300e6 * 1.01})),
        ("C7", ("C",), Allocation(cloud_speed={0: 1e9}, fronthaul_bw={0: 1e6}, midhaul_bw={0: 500e6 * 1.01})),
    ],
)
def test_each_constraint_individually_violated(make_topology, make_tasks, constraint, decision, alloc):
    topo = make_topology()
    tasks = make_tasks(1e7, 1.0)
    violations = check_feasibility(topo, tasks, Decision(decision), alloc)
    assert len(violations) == 1
    v = violations[0]
    assert v.constraint == constraint
    assert constraint in str(v)
    if constraint in ("C3", "C6"):
        assert v.index == 0  # the RU
    elif constraint == "C5":
        assert v.index is None


# The paper's three-tier model, written out apart from `latency`'s table:
# each tier's legs as (Allocation map, constraint, node of the leg's pool),
# the node being the task's RU, its DU or (None) the one cloud.
PAPER_LEGS = {
    "L": (("mecl_speed", "C3", "ru"),),
    "H": (("mech_speed", "C4", "du"), ("fronthaul_bw", "C6", "ru")),
    "C": (("cloud_speed", "C5", None), ("fronthaul_bw", "C6", "ru"), ("midhaul_bw", "C7", "du")),
}


@pytest.mark.parametrize("num_users, num_rus, num_dus", [(8, 4, 2), (40, 10, 4)])
def test_model_matches_the_paper(random_instance, num_users, num_rus, num_dus):
    # Random plans under every scheme: the exact allocation holds a share in
    # just the maps the paper gives each task's tier and passes
    # check_feasibility, and scaling any one share by 1 + 1e-6 breaks just
    # that leg's constraint, at the node of its pool.
    rng = np.random.default_rng(num_users)
    for seed in range(3):
        scenario, _ = random_instance(seed=seed, num_users=num_users, num_rus=num_rus, num_dus=num_dus)
        topo, tasks = scenario.topology, scenario.tasks
        nodes = {"ru": topo.user_to_ru.tolist(), "du": topo.ru_to_du[topo.user_to_ru].tolist()}
        for scheme in Scheme:
            tiers = scheme.allowed_tiers
            decision = Decision(tuple(tiers[i] for i in rng.integers(len(tiers), size=num_users)))
            allocation = allocate_given_decision(decision, tasks, topo)
            assert check_feasibility(topo, tasks, decision, allocation) == []
            maps = {name: getattr(allocation, name) for name in allocation.__dataclass_fields__}
            legs = [(k, leg) for k, tier in enumerate(decision.tiers) for leg in PAPER_LEGS[tier]]
            assert {name: set(shares) for name, shares in maps.items()} == {
                name: {k for k, (leg, _, _) in legs if leg == name} for name in maps
            }, scheme
            for k, (name, constraint, node) in legs:
                grown = Allocation(**{**maps, name: {**maps[name], k: maps[name][k] * (1 + 1e-6)}})
                violations = check_feasibility(topo, tasks, decision, grown)
                index = None if node is None else nodes[node][k]
                assert [(v.constraint, v.index) for v in violations] == [(constraint, index)], (scheme, k, name)


def test_violation_names_the_ru(make_topology, make_tasks):
    # capacity small enough that a one-cycle excess exceeds the 1e-9 slack
    topo = make_topology(num_users=2, num_rus=2, user_to_ru=[0, 1], ru_to_du=[0, 0], mecl_capacity_hz=1e3)
    tasks = make_tasks([1e7, 1e7], [1.0, 1.0])
    alloc = Allocation(mecl_speed={0: 1e3, 1: 1e3 + 1.0})
    violations = check_feasibility(topo, tasks, Decision(("L", "L")), alloc)
    assert [(v.constraint, v.index) for v in violations] == [("C3", 1)]


def test_tolerance_admits_closed_form_roundoff(make_topology, make_tasks):
    topo = make_topology(mecl_capacity_hz=3e9)
    tasks = make_tasks(1e7, 1.0)
    alloc = Allocation(mecl_speed={0: 3e9 * (1 + 1e-10)})
    assert check_feasibility(topo, tasks, Decision(("L",)), alloc) == []


def test_total_delay_is_additive(make_topology, make_tasks):
    topo = make_topology(num_users=2)
    tasks = make_tasks([1e7, 2e7], [1.0, 2.0])
    decision = Decision(("L", "H"))
    alloc = Allocation(mecl_speed={0: 1e9}, mech_speed={1: 2e9}, fronthaul_bw={1: 1e7})
    rates = [1e7, 2e7]
    one = task_delay(topo, tasks, 0, "L", alloc, rates[0]).total_s
    two = task_delay(topo, tasks, 1, "H", alloc, rates[1]).total_s
    assert total_delay(topo, tasks, decision, alloc, rates) == pytest.approx(one + two, rel=1e-12)
    solo = total_delay(
        make_topology(num_users=1),
        make_tasks(1e7, 1.0),
        Decision(("L",)),
        Allocation(mecl_speed={0: 1e9}),
        [1e7],
    )
    assert solo == pytest.approx(one, rel=1e-12)


def test_total_delay_refuses_inputs_of_other_sizes(make_topology, make_tasks):
    # A decision, rates or topology that does not cover the task set
    # exactly is refused, not summed over the tasks it happens to cover or
    # broadcast.
    topo = make_topology(num_users=3)
    tasks = make_tasks([1e7, 2e7, 3e7], [1.0, 1.0, 1.0])
    alloc = Allocation(mecl_speed={0: 1e9, 1: 1e9, 2: 1e9})
    decision = Decision(("L", "L", "L"))
    assert total_delay(topo, tasks, decision, alloc, [1e7] * 3) == pytest.approx(6.06, rel=1e-12)
    with pytest.raises(ValueError, match="decision and task set sizes differ"):
        total_delay(topo, tasks, Decision(("L",)), alloc, [1e7] * 3)
    with pytest.raises(ValueError, match="tasks and topology disagree on the number of users"):
        total_delay(make_topology(num_users=4), tasks, decision, alloc, [1e7] * 3)
    for rates in ([1e7] * 2, [1e7] * 4, [1e7], np.full((3, 1), 1e7)):
        with pytest.raises(ValueError, match="rates must hold one entry per task"):
            total_delay(topo, tasks, decision, alloc, rates)


def test_more_resource_never_hurts(make_topology, make_tasks):
    rng = np.random.default_rng(13)
    topo = make_topology()
    tasks = make_tasks(2e7, 2.0)
    for _ in range(50):
        bw_fh, bw_mh = rng.uniform(1e6, 1e8, size=2)
        speed = rng.uniform(1e8, 1e11)
        boost = rng.uniform(1.0, 3.0)
        base = task_delay(
            topo, tasks, 0, "C",
            Allocation(fronthaul_bw={0: bw_fh}, midhaul_bw={0: bw_mh}, cloud_speed={0: speed}),
            1e7,
        ).total_s
        for kwargs in (
            {"fronthaul_bw": {0: bw_fh * boost}, "midhaul_bw": {0: bw_mh}, "cloud_speed": {0: speed}},
            {"fronthaul_bw": {0: bw_fh}, "midhaul_bw": {0: bw_mh * boost}, "cloud_speed": {0: speed}},
            {"fronthaul_bw": {0: bw_fh}, "midhaul_bw": {0: bw_mh}, "cloud_speed": {0: speed * boost}},
        ):
            assert task_delay(topo, tasks, 0, "C", Allocation(**kwargs), 1e7).total_s <= base + 1e-15


def test_decision_and_allocation_validation():
    with pytest.raises(ValueError, match="tier"):
        Decision(("L", "X"))
    with pytest.raises(ValueError, match="mecl_speed"):
        Allocation(mecl_speed={0: 0.0})
    with pytest.raises(ValueError, match="fronthaul_bw"):
        Allocation(fronthaul_bw={2: -1.0})
    assert Decision(("L", "H", "C")).codes.tolist() == [0, 1, 2]
