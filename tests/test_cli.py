import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fogplan
from fogplan import (
    ScenarioSpec,
    Scheme,
    SolverConfig,
    check_feasibility,
    generate_channels,
    generate_scenario,
    solve,
    uplink_rates,
)
from fogplan.cli import (
    ORACLE_CSV_COLUMNS,
    SWEEP_CSV_COLUMNS,
    SweepSpec,
    _sweep_shares,
    build_parser,
    channel_seed,
    compare_oracle,
    format_csv,
    main,
    realization_seed,
    run_sweep,
)
from fogplan.latency import TIER_INDEX
from fogplan.solver import _Pools


def test_run_single_is_deterministic(capsys):
    args = ["--seed", "3", "--users", "5", "--rus", "2", "--dus", "1", "--scheme", "fog"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    assert "total_delay_s=" in first


def test_cloud_scheme_report_shows_only_cloud_rows(capsys):
    assert main(["--seed", "3", "--users", "4", "--rus", "2", "--dus", "1", "--scheme", "cloud"]) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line and line[0].isdigit()]
    assert len(rows) == 4
    assert all(row[3] == "C" for row in rows)


def test_scheme_all_prints_four_reports(capsys):
    assert main(["--seed", "3", "--users", "3", "--rus", "2", "--dus", "1"]) == 0
    out = capsys.readouterr().out
    assert out.count("scheme=") == 4


def test_sweep_csv_bytes_are_reproducible(tmp_path):
    args = [
        "--sweep", "fl=1e9:4e9:3", "--users", "4", "--rus", "2", "--dus", "1",
        "--realizations", "2", "--seed", "7", "--scheme", "all",
    ]
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_csv_schema(tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        main(
            [
                "--sweep", "bh=1e8:5e8:2", "--users", "3", "--rus", "2",
                "--dus", "1", "--realizations", "2", "--seed", "1", "--scheme", "fog",
                "--out", str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
    assert len(lines) == 1 + 2  # two sweep points, one scheme
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "bh"
        assert cells[2] == "fog"
        assert float(cells[3]) > 0
        assert int(cells[5]) == 2
        assert int(cells[6]) == 0


def test_sweep_workers_match_serial(tmp_path):
    # With fewer realizations than workers the points are split as well, and
    # each point's totals are merged back in realization order.  Under `fh`
    # and under `fl` with cloud-du alone, each share plans the flat curves at
    # its first point only; 5 realizations on 3 workers make uneven shares,
    # and the ranged capacities consume random draws.
    for args, workers in (
        (["--sweep", "k=2:4:2", "--users", "2", "--rus", "2", "--dus", "1", "--realizations", "2", "--seed", "5",
          "--scheme", "fog"], "2"),
        (["--sweep", "fl=1e9:5e9:3", "--users", "8", "--rus", "4", "--dus", "2", "--realizations", "3", "--seed", "5",
          "--scheme", "all"], "2"),
        (["--sweep", "fl=1e9:5e9:3", "--users", "8", "--rus", "4", "--dus", "2", "--realizations", "1", "--seed", "5",
          "--scheme", "all"], "2"),
        (["--sweep", "bl=1e8:9e8:5", "--users", "8", "--rus", "4", "--dus", "2", "--realizations", "2", "--seed", "5",
          "--scheme", "all", "--set", "fl=1e9,5e9"], "3"),
        (["--sweep", "fh=1e10:5e10:3", "--users", "8", "--rus", "4", "--dus", "2", "--realizations", "5",
          "--scheme", "all"], "2"),
        (["--sweep", "fl=1e9:5e9:4", "--users", "8", "--rus", "4", "--dus", "2", "--realizations", "3",
          "--scheme", "cloud-du"], "2"),
        (["--sweep", "bl=1e8:9e8:5", "--users", "8", "--rus", "4", "--dus", "2", "--realizations", "5",
          "--scheme", "all", "--set", "fl=1e9,5e9", "--set", "fh=1e10,5e10"], "3"),
    ):
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert main(args + ["--out", str(serial), "--workers", "1"]) == 0
        assert main(args + ["--out", str(parallel), "--workers", workers]) == 0
        assert serial.read_bytes() == parallel.read_bytes()


def _blas_threads():
    """This process's BLAS thread count, if numpy's BLAS reports it."""
    import ctypes

    from numpy._core import _multiarray_umath

    getter = getattr(ctypes.CDLL(_multiarray_umath.__file__), "scipy_openblas_get_num_threads64_", None)
    if getter is None:
        return None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return getter()


def test_sweep_workers_run_one_blas_thread():
    # Each sweep worker's BLAS runs on one thread, so n workers on n cores
    # do not start n BLAS threads each.
    from concurrent.futures import ProcessPoolExecutor

    pytest.importorskip("numpy._core")
    with ProcessPoolExecutor(max_workers=1, initializer=fogplan.cli._one_blas_thread) as pool:
        threads = pool.submit(_blas_threads).result(timeout=120)
    if threads is None:
        pytest.skip("numpy's BLAS reports no thread count")
    assert threads == 1


def test_sweep_shares_give_every_worker_work():
    def shares(points, realizations, workers):
        return [(p.start, p.stop, r.start, r.stop) for p, r in _sweep_shares(points, realizations, workers)]

    assert shares(5, 4, 1) == [(0, 5, 0, 4)]
    assert shares(5, 5, 3) == [(0, 5, 0, 2), (0, 5, 2, 4), (0, 5, 4, 5)]
    # fewer realizations than workers: each realization's points are split
    assert shares(5, 1, 2) == [(0, 2, 0, 1), (2, 5, 0, 1)]
    assert shares(5, 2, 3) == [(0, 2, 0, 1), (2, 5, 0, 1), (0, 5, 1, 2)]
    assert shares(2, 1, 4) == [(0, 1, 0, 1), (1, 2, 0, 1)]  # at most one share per point


def test_sweep_rows_equal_single_solve_replay():
    # A sweep plans every point x realization x scheme of a worker's share as
    # one stream of batches, and a capacity sweep draws each realization's
    # scenario, channels and rates once and plans a scheme none of whose
    # tiers draws on the swept capacity (cloud-du and cloud under `fl`,
    # cloud-ru and cloud under `fh`) at the first point only; its rows must
    # be exactly the means of fresh per-(point, realization) draws and one
    # `solve` per scheme.  The `bl` recipe's ranged capacities consume random
    # draws, and a `k` sweep changes the draws, so its rates cannot be shared.
    schemes = (Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU, Scheme.CLOUD)
    base = ScenarioSpec(num_users=8, num_rus=4, num_dus=2, seed=3)
    ranged = dataclasses.replace(base, mecl_capacity_hz=(1e9, 5e9), mech_capacity_hz=(1e10, 5e10))
    for sweep, spec in (
        (SweepSpec(parameter="fl", start=1e9, stop=5e9, steps=2, realizations=5, base_seed=3), base),
        (SweepSpec(parameter="fh", start=1e10, stop=5e10, steps=3, realizations=3, base_seed=3), base),
        (SweepSpec(parameter="bl", start=1e8, stop=9e8, steps=3, realizations=4, base_seed=3), ranged),
        (SweepSpec(parameter="k", start=4, stop=8, steps=2, realizations=3, base_seed=3), base),
    ):
        field = {"fl": "mecl_capacity_hz", "fh": "mech_capacity_hz", "bl": "fronthaul_capacity_hz", "k": "num_users"}[
            sweep.parameter
        ]
        rows = iter(run_sweep(sweep, schemes, spec))
        for value in sweep.values():
            point = int(value) if sweep.parameter == "k" else value
            totals = {scheme: [] for scheme in schemes}
            for r in range(sweep.realizations):
                seed = realization_seed(sweep.base_seed, r)
                scenario = generate_scenario(dataclasses.replace(spec, **{field: point}, seed=seed))
                channels = generate_channels(
                    scenario.topology, scenario.ru_positions_m, scenario.user_positions_m, seed=channel_seed(seed)
                )
                rates = uplink_rates(scenario.topology, channels)
                for scheme in schemes:
                    totals[scheme].append(solve(scenario.topology, scenario.tasks, rates, scheme).total_delay_s)
            for scheme in schemes:
                row = next(rows)
                assert (row["value"], row["scheme"], row["infeasible_count"]) == (value, scheme.cli_name, 0)
                assert row["mean_total_delay_s"] == sum(totals[scheme]) / sweep.realizations


def test_capacity_points_and_sweep_plans_match_the_public_path():
    # A capacity sweep sets each later point's capacity on the first point's
    # topology through `scenario._with_capacity`, which checks that field
    # alone: the topology must equal `dataclasses.replace`'s in every field,
    # value and dtype, and refuse a bad capacity with the same message.  The
    # sweep's batches record no trace, yet each plan must carry the tier
    # codes, objective, total delay, iteration count and convergence of
    # `solve`, whose traced batch of one must give the trace a traced batch
    # of all the problems gives it.
    from fogplan import solver
    from fogplan.latency import TIER_INDEX
    from fogplan.scenario import _with_capacity

    scenario = generate_scenario(ScenarioSpec(num_users=8, num_rus=4, num_dus=2, seed=4))
    topo, tasks = scenario.topology, scenario.tasks
    for name in ("mecl_capacity_hz", "mech_capacity_hz", "fronthaul_capacity_hz", "midhaul_capacity_hz"):
        size = getattr(topo, name).size
        for value in (np.full(size, 3.5e9), [7e8] * size, np.arange(1, size + 1)):
            got, want = _with_capacity(topo, name, value), dataclasses.replace(topo, **{name: value})
            for field in dataclasses.fields(topo):
                a, b = getattr(got, field.name), getattr(want, field.name)
                assert type(a) is type(b), (name, field.name)
                if isinstance(a, np.ndarray):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (name, field.name)
                else:
                    assert a == b, (name, field.name)
        for bad in (np.zeros(size), np.full(size, np.inf), np.full(size, np.nan), np.full(size + 1, 1e9)):
            with pytest.raises(ValueError) as got:
                _with_capacity(topo, name, bad)
            with pytest.raises(ValueError) as want:
                dataclasses.replace(topo, **{name: bad})
            assert str(got.value) == str(want.value)

    channels = generate_channels(topo, scenario.ru_positions_m, scenario.user_positions_m, seed=channel_seed(4))
    rates = uplink_rates(topo, channels)
    problems = [(_with_capacity(topo, "mecl_capacity_hz", np.full(4, value)), tasks, rates, scheme)
                for value in (1e9, 3e9) for scheme in Scheme]
    traced = dict(solver._solve_batch(problems, trace=True))
    for position, plan in solver._solve_batch(problems):
        result = solve(*problems[position])
        assert plan.trace is None
        assert plan.codes.tolist() == [TIER_INDEX[tier] for tier in result.decision.tiers]
        assert (plan.objective_s, plan.total_delay_s) == (result.objective_s, result.total_delay_s)
        assert (plan.iterations, plan.converged) == (result.iterations, result.converged)
        assert all(values.size == result.iterations for values in result.trace.values())
        expected = solver._result(traced[position], problems[position]).trace
        for key, values in result.trace.items():
            assert values.tobytes() == expected[key].tobytes(), (position, key)


def test_sweep_plans_flat_curves_once(monkeypatch):
    # Of P points x R realizations x 4 schemes, an `fl` or `fh` sweep plans
    # the two schemes whose tiers draw on the swept capacity at every point
    # and the other two at the first point only: 2PR + 2R problems.  Under
    # `bl` every scheme draws on the swept capacity.
    planned = []
    solve_batch = fogplan.cli._solve_batch

    def counting(problems, config):
        return solve_batch((planned.append(problem) or problem for problem in problems), config)

    monkeypatch.setattr(fogplan.cli, "_solve_batch", counting)
    schemes = (Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU, Scheme.CLOUD)
    base = ScenarioSpec(num_users=4, num_rus=2, num_dus=1, seed=5)
    points, realizations = 3, 2
    for parameter, start, stop, count in (
        ("fl", 1e9, 5e9, 2 * points * realizations + 2 * realizations),
        ("fh", 1e10, 5e10, 2 * points * realizations + 2 * realizations),
        ("bl", 1e8, 9e8, 4 * points * realizations),
    ):
        planned.clear()
        sweep = SweepSpec(parameter=parameter, start=start, stop=stop, steps=points, realizations=realizations)
        rows = run_sweep(sweep, schemes, base, workers=1)
        assert len(planned) == count, parameter
        assert len(rows) == points * len(schemes)


def test_k_sweep_uses_integer_user_counts(tmp_path):
    out = tmp_path / "k.csv"
    assert (
        main(
            [
                "--sweep", "k=2:6:3", "--users", "2", "--rus", "2", "--dus", "1",
                "--seed", "2", "--scheme", "fog", "--out", str(out),
            ]
        )
        == 0
    )
    values = [float(line.split(",")[1]) for line in out.read_text().splitlines()[1:]]
    assert values == [2.0, 4.0, 6.0]


def test_oracle_check_prints_gap_summary(capsys):
    code = main(
        [
            "--oracle-check", "--users", "3", "--rus", "2", "--dus", "1",
            "--realizations", "3", "--seed", "11", "--scheme", "fog",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "median_gap=" in out and "p95_gap=" in out and "max_gap=" in out


def test_oracle_check_does_not_load_numpy_ma():
    # the gap summary is a handful of numbers; numpy's median and percentile
    # would import numpy.ma (over 1 MB) into the process for them
    script = (
        "import sys\n"
        "from fogplan.cli import main\n"
        "assert main(['--oracle-check', '--users', '4', '--rus', '2', '--dus', '1', '--realizations', '2']) == 0\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
    )
    src = str(Path(fogplan.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("median_gap=") == 4


def test_oracle_check_csv(tmp_path, capsys):
    out = tmp_path / "gaps.csv"
    assert (
        main(
            [
                "--oracle-check", "--users", "3", "--rus", "2", "--dus", "1",
                "--realizations", "2", "--seed", "11", "--scheme", "fog", "--out", str(out),
            ]
        )
        == 0
    )
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(ORACLE_CSV_COLUMNS)
    assert len(lines) == 3
    gaps = [float(line.split(",")[5]) for line in lines[1:]]
    assert all(g >= -1e-12 for g in gaps)


def test_save_and_reload_scenario(tmp_path, capsys):
    path = tmp_path / "case.scn"
    args = ["--seed", "4", "--users", "4", "--rus", "2", "--dus", "1", "--scheme", "fog"]
    assert main(args + ["--save-scenario", str(path)]) == 0
    generated = capsys.readouterr().out
    assert path.exists()
    assert main(["--scenario", str(path), "--seed", "4", "--scheme", "fog"]) == 0
    reloaded = capsys.readouterr().out
    assert generated == reloaded


def test_empty_task_set_yields_zero_row_report(tmp_path, capsys):
    import numpy as np

    from fogplan import Scenario, TaskSet, Topology, save_scenario

    topo = Topology(
        num_dus=1, num_rus=1, num_users=0, ru_to_du=[0], user_to_ru=[],
        uplink_bandwidth_hz=[10e6], fronthaul_capacity_hz=[300e6], midhaul_capacity_hz=[500e6],
        fronthaul_se=[3.0], midhaul_se=[3.0], mecl_capacity_hz=[2e9],
        mech_capacity_hz=[25e9], cloud_capacity_hz=5e12,
    )
    scenario = Scenario(
        topology=topo,
        tasks=TaskSet(data_bits=np.array([]), cycles_per_bit=np.array([])),
        ru_positions_m=np.zeros((1, 2)),
        user_positions_m=np.zeros((0, 2)),
    )
    path = tmp_path / "empty.scn"
    save_scenario(path, scenario)
    assert main(["--scenario", str(path), "--scheme", "fog"]) == 0
    out = capsys.readouterr().out
    assert "total_delay_s=0" in out
    assert not any(line and line[0].isdigit() for line in out.splitlines())


def test_missing_users_is_an_error(capsys):
    assert main(["--seed", "1"]) == 2
    assert "--users" in capsys.readouterr().err


def test_negative_seed_is_an_error_naming_the_seed(capsys):
    # A single plan draws its scenario from --seed itself, which must not be
    # negative; sweeps and oracle checks mask their realization seeds to 64
    # bits and accept it.
    assert main(["--users", "3", "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: seed must be non-negative, got -1\n"
    argv = ["--users", "3", "--rus", "2", "--dus", "1", "--seed", "-1", "--scheme", "cloud"]
    assert main(argv + ["--sweep", "fl=1e9:2e9:2"]) == 0
    assert main(argv + ["--oracle-check"]) == 0


def test_parser_defaults_are_the_solver_defaults():
    args = build_parser().parse_args([])
    assert SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters) == SolverConfig()
    assert build_parser()._option_string_actions["--scheme"].choices == ["fog", "cloud", "cloud-du", "cloud-ru", "all"]


def test_bad_sweep_flag_is_an_error(tmp_path, capsys):
    assert main(["--sweep", "fl=1e9", "--users", "2"]) == 2
    assert "START:STOP:STEPS" in capsys.readouterr().err
    assert main(["--sweep", "zz=1:2:2", "--users", "2"]) == 2
    assert "unknown sweep parameter" in capsys.readouterr().err
    assert main(["--sweep", "fl=1e9:inf:3", "--users", "2"]) == 2
    assert "fl must be finite" in capsys.readouterr().err
    for flag, value, message in (
        ("--epsilon", "nan", "epsilon"),
        ("--epsilon", "inf", "epsilon"),
        ("--max-iters", "0", "max_iters"),
        ("--workers", "0", "workers"),
        ("--workers", "-2", "workers"),
        ("--antennas", "0", "num_antennas"),
        ("--antennas", "-1", "num_antennas"),
    ):
        assert main(["--sweep", "fl=1e9:2e9:2", "--users", "2", flag, value]) == 2
        assert message in capsys.readouterr().err
    # a scenario file is read or written only when planning one scenario
    for mode in (["--sweep", "fl=1e9:2e9:2"], ["--oracle-check"]):
        for flag in ("--scenario", "--save-scenario"):
            path = tmp_path / "s.txt"
            assert main(mode + ["--users", "5", "--scheme", "fog", flag, str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and flag in err and mode[0] in err
            assert not path.exists()


def test_out_of_memory_is_an_error(monkeypatch, capsys):
    # a scenario whose arrays do not fit (say, a k sweep to 1e6 users, whose
    # per-RU gain matrix alone needs 149 GiB) exits 2 with a diagnostic
    def no_memory(topology, channels):
        raise MemoryError("Unable to allocate 149. GiB for an array")

    monkeypatch.setattr(fogplan.cli, "uplink_rates", no_memory)
    assert main(["--seed", "1", "--users", "4"]) == 2
    assert "error: out of memory: Unable to allocate 149. GiB" in capsys.readouterr().err
    assert main(["--sweep", "k=4:8:2", "--users", "4"]) == 2
    assert "error: out of memory" in capsys.readouterr().err


def test_oracle_check_above_cap_is_an_error(capsys):
    assert main(["--oracle-check", "--users", "8", "--rus", "2", "--dus", "1", "--scheme", "fog"]) == 2
    assert "enumeration cap" in capsys.readouterr().err
    assert main(["--oracle-check", "--users", "4", "--realizations", "0"]) == 2
    assert "realizations" in capsys.readouterr().err


def test_broken_scenario_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "broken.scn"
    path.write_text("num_dus = 1\n")
    assert main(["--scenario", str(path)]) == 2
    assert "missing required key" in capsys.readouterr().err


def test_set_overrides_apply(capsys):
    args = [
        "--seed", "2", "--users", "3", "--rus", "2", "--dus", "1", "--scheme", "cloud",
        "--set", "fc=1e11", "--set", "fl=1e9,2e9",
    ]
    assert main(args) == 0
    assert "scheme=cloud" in capsys.readouterr().out
    assert main(["--seed", "2", "--users", "3", "--set", "oops=1"]) == 2
    capsys.readouterr()
    assert main(["--seed", "2", "--users", "3", "--set", "fl=1e9,2e9,3e9"]) == 2
    assert "LO,HI" in capsys.readouterr().err
    for bound in ("nan", "inf"):
        assert main(["--seed", "2", "--users", "3", "--set", f"fl=1e9,{bound}"]) == 2
        assert "mecl_capacity_hz" in capsys.readouterr().err
    assert main(["--seed", "2", "--users", "3", "--set", "fc=1e-300"]) == 2
    assert "initial prices overflow" in capsys.readouterr().err
    # Extreme but finite capacities: the starting prices (W / F)^2 of the
    # tasks spread evenly over their tiers are refused up front where they
    # overflow, or underflow to 0 on a pool a task reads.
    assert main(["--seed", "2", "--users", "3", "--set", "fl=1e150"]) == 0
    capsys.readouterr()
    assert main(["--seed", "2", "--users", "3", "--set", "fl=1e200"]) == 2
    assert "initial prices underflow" in capsys.readouterr().err
    # An RU MEC pool of 1e-100 Hz prices finitely; its tier is so slow that
    # no task runs on it.
    assert main(["--seed", "2", "--users", "4", "--rus", "2", "--dus", "1", "--set", "fl=1e-100", "--scheme", "fog"]) == 0
    tiers = [line.split()[3] for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
    assert len(tiers) == 4 and "L" not in tiers
    # cloud-du draws on no RU MEC pool, so it has no price for one and no RU
    # MEC capacity is too extreme for it: its curve is flat.  fog draws on
    # the RU MEC pools, and 1e-300 Hz makes their prices overflow.
    args = ["--sweep", "fl=1e9:1e-300:2", "--users", "4", "--rus", "2", "--dus", "1"]
    assert main(["--scheme", "cloud-du", *args]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 3 and rows[1].split(",")[2:] == rows[2].split(",")[2:]
    assert main(["--scheme", "fog", *args]) == 2
    assert "initial prices overflow" in capsys.readouterr().err


def test_ranges_of_network_wide_values_are_errors(capsys):
    # fc and spacing set one number for the whole network, so a LO,HI range
    # for either exits 2 with a one-line diagnostic naming the key, not a
    # traceback; a single value still plans.
    for key, field in (("fc", "cloud_capacity_hz"), ("spacing", "ru_spacing_m")):
        for value in ("1e12,2e12", "100,200"):
            assert main(["--users", "3", "--rus", "2", "--dus", "1", "--set", f"{key}={value}"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --set {key} expects one VALUE") and field in err and err.count("\n") == 1
    assert main(["--users", "3", "--rus", "2", "--dus", "1", "--set", "fc=1e12", "--set", "spacing=300"]) == 0


def test_a_finite_share_of_an_extreme_pool_plans(capsys):
    # A midhaul of 5.87e242 Hz split over tiny demands: each share is at most
    # the capacity, so it is finite, but capacity times sqrt(demand)
    # overflowed before the division and the valid plan exited 2 (1 with the
    # suite's RuntimeWarnings as errors).
    argv = ["--seed", "238", "--users", "6", "--rus", "1", "--dus", "1", "--set", "fh=5.58e-14",
            "--set", "bh=5.87e242", "--set", "rh=6.75e-214", "--scheme", "cloud"]
    assert main(argv) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines() if line[:1].isdigit()]
    assert len(rows) == 6 and {row[3] for row in rows} == {"C"}
    assert all(0 < float(row[7]) <= 5.87e242 * 1e6 for row in rows)  # midhaul share in MHz


def test_out_of_range_radio_and_geometry_are_errors(capsys):
    # An uplink bandwidth whose noise power makes the SINR NaN (1e300 Hz) or
    # inf (1e-300 Hz), an RU spacing that is not finite, and one at which the
    # user-RU distances overflow, exit 2 with a one-line diagnostic; the
    # suite makes any RuntimeWarning an error.
    for value in ("1e300", "1e-300"):
        assert main(["--seed", "2", "--users", "3", "--set", f"uplink={value}"]) == 2
        err = capsys.readouterr().err
        assert f"the SINR at uplink bandwidth {float(value):g} Hz is not finite" in err and err.count("\n") == 1
    for value in ("nan", "inf"):
        assert main(["--seed", "2", "--users", "3", "--set", f"spacing={value}"]) == 2
        err = capsys.readouterr().err
        assert "ru_spacing_m must be finite" in err and err.count("\n") == 1
    assert main(["--seed", "2", "--users", "3", "--set", "spacing=1e160"]) == 2
    err = capsys.readouterr().err
    assert "ru_spacing_m = 1e+160 is too large: the user-RU distances overflow" in err and err.count("\n") == 1
    assert main(["--seed", "2", "--users", "3", "--set", "spacing=1e60"]) == 0  # far apart, but still a plan


# The cases of a grid over fl fh bl bh fc uplink rl rh at 1e±100, 1e±150,
# 1e±200 and 1e±300 under all four schemes (at --seed 1 --users 3 --rus 2
# --dus 1) that once overflowed: a barred tier's single-tier cost (fl, fh at
# 1e-300), a delay leg's share times spectral efficiency (rl, rh at 1e300),
# or an allowed tier's demand times price, which made the barred L tier the
# cheapest (rl, rh at 1e-200 and below).  At --seed 0, rl or rh at 1e-300
# made a single-tier plan's squared pool sum overflow, under every scheme,
# and the barred L tier the first incumbent.  With ten users, rh at 1e-300
# and bh at 10 plans; the iterate's pool sums fall far enough below the
# forward vertex's that their ratio lies beyond the float range.  At bh=3
# the cloud plan's cost itself overflows, which is refused.
ONE_SEED = ("--seed", "1", "--users", "3", "--rus", "2", "--dus", "1")
ZERO_SEED = ("--seed", "0", "--users", "3", "--rus", "2", "--dus", "1")
TEN_USERS = ("--seed", "0", "--users", "10")
SCHEMES = ("fog", "cloud-ru", "cloud-du", "cloud")
EXTREME_CASES = (
    [(ONE_SEED, ("fl=1e-300",), scheme) for scheme in ("cloud-du", "cloud")]
    + [(ONE_SEED, ("fh=1e-300",), scheme) for scheme in ("cloud-ru", "cloud")]
    + [(ONE_SEED, (f"{key}=1e300",), scheme) for key in ("rl", "rh") for scheme in SCHEMES]
    + [(ONE_SEED, (f"rl={value}",), scheme) for value in ("1e-200", "1e-300") for scheme in ("cloud-du", "cloud")]
    + [(ONE_SEED, (f"rh={value}",), "cloud") for value in ("1e-200", "1e-300")]
    + [(ZERO_SEED, (f"{key}=1e-300",), scheme) for key in ("rl", "rh") for scheme in SCHEMES]
    + [(TEN_USERS, ("rh=1e-300", "bh=10"), scheme) for scheme in SCHEMES]
    + [(TEN_USERS, ("rh=1e-300", "bh=3"), "cloud")]
)


def test_extreme_inputs_plan_inside_the_scheme_or_exit_2(capsys):
    # Each case plans every task on a tier its scheme offers, or exits 2 with
    # a one-line diagnostic; the suite makes any RuntimeWarning an error.
    assert len(EXTREME_CASES) == 31
    refused = []
    for plan, entries, scheme in EXTREME_CASES:
        argv = [*plan, *(arg for entry in entries for arg in ("--set", entry)), "--scheme", scheme]
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            refused.append(err)
            continue
        assert code == 0, argv
        tiers = [line.split()[3] for line in out.splitlines() if line and line[0].isdigit()]
        users = int(plan[plan.index("--users") + 1])
        assert len(tiers) == users and set(tiers) <= set(Scheme.from_name(scheme).allowed_tiers), argv
    assert refused[-1] == "error: single-tier plan costs overflow: a pool's capacity is too small for its demand\n"


# The --set keys and their magnitudes for the contract fuzz: 10^U(+-300)
# reaches the ends of the float range, 10^U(+-30) the region where plans
# mostly succeed.
FUZZ_SET_KEYS = ("fl", "fh", "bl", "bh", "fc", "uplink", "rl", "rh", "spacing")
FUZZ_CASES = 200


def _fuzz_argv(rng: random.Random, case: int) -> list[str]:
    rus = rng.randint(1, 5)
    argv = ["--seed", str(rng.randrange(10**6)), "--users", str(rng.randint(1, 12)), "--rus", str(rus),
            "--dus", str(rng.randint(1, rus)), "--scheme", list(Scheme)[case % len(Scheme)].cli_name]
    for key in rng.sample(FUZZ_SET_KEYS, rng.randint(1, 3)):
        span = rng.choice((300, 30))
        values = sorted(10 ** rng.uniform(-span, span) for _ in range(rng.choice((1, 1, 2))))
        argv += ["--set", f"{key}={','.join(f'{v:.6g}' for v in values)}"]
    return argv


def _neighbours(codes: np.ndarray, tiers: list[int]) -> np.ndarray:
    """Every plan (N, K) that one task's tier change, or a change of two
    tasks' tiers, makes of the tier codes `codes` (K,), over the tier codes
    `tiers`."""
    singles = [(k, tier) for k in range(codes.size) for tier in tiers if tier != codes[k]]
    plans = []
    for i, (k, tier) in enumerate(singles):
        plan = codes.copy()
        plan[k] = tier
        plans.append(plan)
        for other, other_tier in singles[i + 1:]:
            if other != k:
                pair = plan.copy()
                pair[other] = other_tier
                plans.append(pair)
    return np.array(plans, dtype=np.int64).reshape(-1, codes.size)


def test_seeded_contract_fuzz_through_main(monkeypatch, capsys):
    # Single plans at seeded random sizes and extreme --set values under all
    # four schemes: each run exits 2 with a one-line diagnostic, or exits 0
    # with every task on a tier of its scheme, a feasible allocation, no
    # dual value above the plan's objective, no nan in the report, the same
    # bytes when rerun, and a local optimum: no single or pair tier change
    # lowers the exact cost.  The suite makes any RuntimeWarning an error.
    solved = []

    def recording_solve(topology, tasks, rates, scheme, config=None):
        result = solve(topology, tasks, rates, scheme, config)
        solved.append((topology, tasks, scheme, result))
        return result

    monkeypatch.setattr(fogplan.cli, "solve", recording_solve)
    rng = random.Random(20)
    planned = 0
    for case in range(FUZZ_CASES):
        argv = _fuzz_argv(rng, case)
        solved.clear()
        code = main(argv)
        out, err = capsys.readouterr()
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, argv
            continue
        assert code == 0 and not err and "nan" not in out, argv
        [(topology, tasks, scheme, result)] = solved
        assert set(result.decision.tiers) <= set(scheme.allowed_tiers), argv
        assert check_feasibility(topology, tasks, result.decision, result.allocation) == [], argv
        assert np.all(result.trace["dual_value_s"] <= result.objective_s * (1 + 1e-12)), argv
        assert main(argv) == 0 and capsys.readouterr().out == out, argv
        codes = np.array(result.decision.codes)
        moves = _neighbours(codes, [TIER_INDEX[tier] for tier in scheme.allowed_tiers])
        if moves.size:
            pools = _Pools(tasks, topology)
            with np.errstate(over="ignore"):  # a move may cost more than a float holds
                assert not (pools.costs(moves[:, None]) < pools.costs(codes[None])).any(), argv
        planned += 1
    assert FUZZ_CASES // 4 <= planned < FUZZ_CASES  # both outcomes occur


def test_sweepspec_validation():
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        SweepSpec(parameter="zk", start=1, stop=2, steps=2)
    with pytest.raises(ValueError, match="2 steps"):
        SweepSpec(parameter="fl", start=1, stop=2, steps=1)
    with pytest.raises(ValueError, match="realizations"):
        SweepSpec(parameter="fl", start=1, stop=2, steps=2, realizations=0)
    spec = SweepSpec(parameter="FH", start=1e9, stop=2e9, steps=3)
    assert spec.parameter == "fh"
    assert spec.values() == [1e9, 1.5e9, 2e9]


def test_run_sweep_rows_are_ordered_and_complete():
    sweep = SweepSpec(parameter="fl", start=1e9, stop=2e9, steps=2, realizations=2, base_seed=3)
    rows = run_sweep(
        sweep,
        (Scheme.FOG, Scheme.CLOUD),
        ScenarioSpec(num_users=3, num_rus=2, num_dus=1, seed=3),
        SolverConfig(max_iters=300),
    )
    assert [(r["value"], r["scheme"]) for r in rows] == [
        (1e9, "fog"), (1e9, "cloud"), (2e9, "fog"), (2e9, "cloud"),
    ]
    for row in rows:
        assert row["mean_total_delay_s"] > 0
        assert row["infeasible_count"] == 0
    text = format_csv(rows, SWEEP_CSV_COLUMNS)
    assert text.startswith(",".join(SWEEP_CSV_COLUMNS) + "\n")
    assert text.endswith("\n")


def test_infeasible_realizations_counted_and_excluded(monkeypatch):
    import math

    import fogplan.cli as cli_mod

    original = cli_mod._sweep_share

    def flaky(args):
        totals = original(args)
        for point, realization, scheme in totals:
            if realization == 0:
                totals[point, realization, scheme] = math.inf
        return totals

    monkeypatch.setattr(cli_mod, "_sweep_share", flaky)
    rows = run_sweep(
        SweepSpec(parameter="fl", start=1e9, stop=2e9, steps=2, realizations=3, base_seed=4),
        (Scheme.FOG,),
        ScenarioSpec(num_users=3, num_rus=2, num_dus=1, seed=4),
        SolverConfig(max_iters=200),
    )
    for row in rows:
        assert row["infeasible_count"] == 1
        assert row["realizations"] == 3
        assert math.isfinite(row["mean_total_delay_s"])


def test_compare_oracle_library_summary():
    summaries, rows = compare_oracle(
        ScenarioSpec(num_users=3, num_rus=2, num_dus=1, seed=6),
        (Scheme.FOG,),
        realizations=4,
        config=SolverConfig(max_iters=300),
    )
    assert len(rows) == 4
    assert summaries[0]["scheme"] == "fog"
    assert summaries[0]["max_gap"] < 0.1
    assert all(row["rel_gap"] >= -1e-12 for row in rows)
