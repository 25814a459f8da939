import numpy as np
import pytest

from fogplan import Scenario, ScenarioSpec, Scheme, TaskSet, generate_scenario, load_scenario, save_scenario
from fogplan.scenario import SCENARIO_KEYS, TIER_C


def test_default_spec_matches_table_defaults():
    scenario = generate_scenario(ScenarioSpec(num_users=8, seed=1))
    topo = scenario.topology
    assert topo.num_dus == 4
    assert topo.num_rus == 10
    assert topo.num_users == 8
    assert np.all(topo.uplink_bandwidth_hz == 10e6)
    assert np.all(topo.fronthaul_se == 3.0)
    assert np.all(topo.midhaul_se == 3.0)
    assert topo.cloud_capacity_hz == 5e12


def test_generation_is_deterministic(tmp_path):
    spec = ScenarioSpec(num_users=6, num_rus=4, num_dus=2, seed=42)
    a = generate_scenario(spec)
    b = generate_scenario(spec)
    assert np.array_equal(a.tasks.data_bits, b.tasks.data_bits)
    assert np.array_equal(a.tasks.cycles_per_bit, b.tasks.cycles_per_bit)
    assert np.array_equal(a.topology.user_to_ru, b.topology.user_to_ru)
    assert np.array_equal(a.user_positions_m, b.user_positions_m)
    save_scenario(tmp_path / "a.scn", a)
    save_scenario(tmp_path / "b.scn", b)
    assert (tmp_path / "a.scn").read_bytes() == (tmp_path / "b.scn").read_bytes()


def test_collapsed_task_range_gives_exact_size():
    spec = ScenarioSpec(num_users=1, num_rus=2, num_dus=1, seed=0, data_bits_range=(1e7, 1e7))
    scenario = generate_scenario(spec)
    assert scenario.tasks.num_tasks == 1
    assert scenario.tasks.data_bits[0] == 1e7


def test_users_attach_to_nearest_ru():
    scenario = generate_scenario(ScenarioSpec(num_users=40, seed=9))
    dists = np.linalg.norm(
        scenario.user_positions_m[:, None, :] - scenario.ru_positions_m[None, :, :], axis=2
    )
    assert np.array_equal(scenario.topology.user_to_ru, np.argmin(dists, axis=1))


def test_task_draws_stay_in_ranges():
    spec = ScenarioSpec(num_users=200, seed=3)
    tasks = generate_scenario(spec).tasks
    assert np.all(tasks.data_bits >= 5e6) and np.all(tasks.data_bits <= 30e6)
    assert np.all(tasks.cycles_per_bit >= 0.1) and np.all(tasks.cycles_per_bit <= 10.0)


@pytest.mark.parametrize(
    "bad",
    [
        {"num_users": 0},
        {"num_rus": 0},
        {"num_dus": -1},
        {"data_bits_range": (3e7, 5e6)},
        {"cycles_per_bit_range": (10.0, 0.1)},
        {"data_bits_range": (5e6, float("nan"))},
        {"mecl_capacity_hz": (5e9, 1e9)},
        {"mecl_capacity_hz": (1e9, float("nan"))},
        {"ru_spacing_m": 0.0},
        {"ru_spacing_m": float("nan")},
        {"ru_spacing_m": float("inf")},
        {"ru_spacing_m": 1e160},  # finite, but the user-RU distances overflow
    ],
)
def test_generator_rejects_bad_specs(bad):
    kwargs = {"num_users": 4, "seed": 0}
    kwargs.update(bad)
    with pytest.raises(ValueError):
        generate_scenario(ScenarioSpec(**kwargs))


def test_negative_seed_is_refused_by_name(monkeypatch):
    # Refused before any draw, with a message that names the seed rather
    # than numpy's "expected non-negative integer".
    def no_draw(seed):
        raise AssertionError("drew before checking the seed")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        generate_scenario(ScenarioSpec(num_users=4, seed=-1))


def test_ranged_capacities_draw_per_node():
    spec = ScenarioSpec(num_users=4, seed=5, mecl_capacity_hz=(1e9, 5e9), mech_capacity_hz=(1e10, 5e10))
    topo = generate_scenario(spec).topology
    assert np.all(topo.mecl_capacity_hz >= 1e9) and np.all(topo.mecl_capacity_hz <= 5e9)
    assert len(set(topo.mecl_capacity_hz)) > 1
    assert np.all(topo.mech_capacity_hz >= 1e10) and np.all(topo.mech_capacity_hz <= 5e10)


def test_roundtrip_identity(tmp_path):
    scenario = generate_scenario(ScenarioSpec(num_users=7, seed=11))
    path = tmp_path / "table1.scn"
    save_scenario(path, scenario)
    loaded = load_scenario(path)
    topo_a, topo_b = scenario.topology, loaded.topology
    for name in (
        "ru_to_du",
        "user_to_ru",
        "uplink_bandwidth_hz",
        "fronthaul_capacity_hz",
        "midhaul_capacity_hz",
        "fronthaul_se",
        "midhaul_se",
        "mecl_capacity_hz",
        "mech_capacity_hz",
    ):
        assert np.array_equal(getattr(topo_a, name), getattr(topo_b, name)), name
    assert topo_a.cloud_capacity_hz == topo_b.cloud_capacity_hz
    assert np.array_equal(scenario.tasks.data_bits, loaded.tasks.data_bits)
    assert np.array_equal(scenario.tasks.cycles_per_bit, loaded.tasks.cycles_per_bit)
    assert np.array_equal(scenario.ru_positions_m, loaded.ru_positions_m)
    assert np.array_equal(scenario.user_positions_m, loaded.user_positions_m)
    # a second save of the loaded scenario is byte-identical
    path2 = tmp_path / "again.scn"
    save_scenario(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_missing_key_is_named(tmp_path):
    scenario = generate_scenario(ScenarioSpec(num_users=3, seed=2))
    path = tmp_path / "broken.scn"
    save_scenario(path, scenario)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("cloud_capacity_hz")]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="cloud_capacity_hz"):
        load_scenario(path)


def test_out_of_range_ru_to_du_is_rejected(tmp_path):
    scenario = generate_scenario(ScenarioSpec(num_users=3, num_rus=4, num_dus=2, seed=2))
    path = tmp_path / "broken.scn"
    save_scenario(path, scenario)
    text = path.read_text().replace("ru_to_du = 0 0 1 1", "ru_to_du = 0 0 1 2")
    path.write_text(text)
    with pytest.raises(ValueError, match="ru_to_du"):
        load_scenario(path)


def test_unknown_key_is_rejected(tmp_path):
    scenario = generate_scenario(ScenarioSpec(num_users=3, seed=2))
    path = tmp_path / "extra.scn"
    save_scenario(path, scenario)
    with open(path, "a") as fh:
        fh.write("bogus_key = 1\n")
    with pytest.raises(ValueError, match="bogus_key"):
        load_scenario(path)


def test_every_generated_scenario_satisfies_invariants():
    # generation property: valid structures across many seeds
    for seed in range(1000):
        spec = ScenarioSpec(num_users=3, num_rus=3, num_dus=2, seed=seed)
        scenario = generate_scenario(spec)
        topo = scenario.topology
        assert np.all((topo.ru_to_du >= 0) & (topo.ru_to_du < topo.num_dus))
        assert np.all((topo.user_to_ru >= 0) & (topo.user_to_ru < topo.num_rus))
        assert np.all(scenario.tasks.data_bits > 0)
        assert np.all(scenario.tasks.cycles_per_bit > 0)


def test_topology_invariant_errors(make_topology):
    with pytest.raises(ValueError, match="ru_to_du"):
        make_topology(num_rus=2, num_dus=1, ru_to_du=[0, 1])
    with pytest.raises(ValueError, match="user_to_ru"):
        make_topology(num_users=2, num_rus=1, user_to_ru=[0, 1])
    with pytest.raises(ValueError, match="mecl_capacity_hz"):
        make_topology(mecl_capacity_hz=0.0)
    with pytest.raises(ValueError, match="cloud_capacity_hz"):
        make_topology(cloud_capacity_hz=-1.0)


def test_taskset_rejects_nonpositive_entries():
    with pytest.raises(ValueError, match="data_bits"):
        TaskSet(data_bits=[0.0], cycles_per_bit=[1.0])
    with pytest.raises(ValueError, match="cycles_per_bit"):
        TaskSet(data_bits=[1e6], cycles_per_bit=[-2.0])


def test_scheme_tier_sets():
    assert Scheme.FOG.allowed_tiers == ("L", "H", "C")
    assert Scheme.CLOUD.allowed_tiers == ("C",)
    assert Scheme.CLOUD_DU.allowed_tiers == ("H", "C")
    assert Scheme.CLOUD_RU.allowed_tiers == ("L", "C")
    for scheme in Scheme:
        assert TIER_C in scheme.allowed_tiers
    assert Scheme.from_name("cloud-du") is Scheme.CLOUD_DU
    assert Scheme.from_name("FOG") is Scheme.FOG
    with pytest.raises(ValueError, match="unknown scheme"):
        Scheme.from_name("edge")


def test_scenario_shape_mismatch_rejected():
    scenario = generate_scenario(ScenarioSpec(num_users=3, seed=2))
    with pytest.raises(ValueError, match="user_positions_m"):
        Scenario(
            topology=scenario.topology,
            tasks=scenario.tasks,
            ru_positions_m=scenario.ru_positions_m,
            user_positions_m=scenario.user_positions_m[:-1],
        )


def test_scenario_keys_documented_set():
    # the persisted key set is a stable format contract
    assert "cloud_capacity_hz" in SCENARIO_KEYS
    assert len(SCENARIO_KEYS) == 17
