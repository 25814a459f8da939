"""The benchmark's own tests: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fogplan import latency, oracle, solver  # noqa: E402
from fogplan.scenario import Scheme  # noqa: E402

from checks import Checker, oracle_problems  # noqa: E402
from worker import tail, verify  # noqa: E402
from workloads import WORKLOADS, make_instance  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]


def run_bench(*args, cwd=ROOT, script=ROOT / "perfbench" / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def tiny_run(workload, seed, trace):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    digest = next(json.loads(line[len("digest "):]) for line in lines if line.startswith("digest "))
    return lines, json.loads(lines[-1]), digest


def test_workloads_match_benchmark_json():
    assert sorted(WORKLOAD_NAMES) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    lines, result, _ = tiny_run(workload, 3, trace)
    listed = BENCH["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        printed = [line for line in lines if line.startswith(metric["name"] + " ")]
        assert len(printed) == 1 and printed[0].split()[2] == metric["unit"], printed
    assert any(line.startswith("failed_frac 0 ratio") for line in lines)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_one_seed_repeats_exactly_and_a_held_out_seed_passes(workload, trace):
    _, _, first = tiny_run(workload, 7, trace)
    _, _, second = tiny_run(workload, 7, trace)
    assert first == second
    _, held_out, other = tiny_run(workload, 8191, trace)
    assert held_out["failed"] == 0 and other["digest"] != first["digest"]


def test_tail_needs_ten_samples_above_p50():
    assert tail(list(range(19))) is None
    value, percentile = tail([float(i) for i in range(100)])
    assert percentile == 90 and value == 89.0
    assert sum(s > value for s in range(100)) >= 10


def _solved(users=8):
    inst = make_instance(5, 6, users, 4, 2)
    return inst, solver.solve(inst.topology, inst.tasks, inst.rates, Scheme.FOG)


def _check(inst, result):
    checker = Checker()
    checker.attempt(0, 1)
    checker.check_plan(0, 0, inst.topology, inst.tasks, inst.rates, Scheme.FOG, result)
    return checker


def test_a_correct_plan_passes():
    checker = _check(*_solved())
    assert (checker.attempted, checker.failed, checker.messages) == (1, 0, [])


def test_allocation_scaled_past_capacity_counts_as_failed():
    inst, result = _solved()
    scaled = dataclasses.replace(
        result.allocation, **{f.name: {k: 2.0 * v for k, v in getattr(result.allocation, f.name).items()}
                              for f in dataclasses.fields(result.allocation)}
    )
    checker = _check(inst, dataclasses.replace(result, allocation=scaled))
    assert checker.failed == 1 and checker.infeasible_plans == 1
    assert "infeasible" in checker.messages[0]


@pytest.mark.parametrize(
    "field, factor, message",
    [
        ("total_delay_s", 0.9, "plan claims"),
        ("objective_s", 0.9, "offload objective"),
        ("best_dual_value_s", None, "weak duality"),
    ],
)
def test_misreported_plan_counts_as_failed(field, factor, message):
    inst, result = _solved()
    value = result.objective_s * 1.01 if factor is None else getattr(result, field) * factor
    checker = _check(inst, dataclasses.replace(result, **{field: value}))
    assert checker.failed == 1 and checker.infeasible_plans == 0
    assert message in checker.messages[0]


def test_dual_bound_above_the_oracle_optimum_is_reported():
    inst, result = _solved(users=4)
    truth = oracle.enumerate_optimal(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
    assert oracle_problems(inst.topology, inst.tasks, inst.rates, result, truth) == []
    raised = dataclasses.replace(result, best_dual_value_s=truth.total_delay_s)
    assert "dual bound" in oracle_problems(inst.topology, inst.tasks, inst.rates, raised, truth)[0]


def test_corrupted_sweep_csv_counts_as_failed():
    workload = WORKLOADS["recipes-desk"](3, tiny=True)
    workload.setup()
    try:
        ops = [workload.run_op(slot) for slot in range(workload.pool_size)]
        header, first_row, *rest = ops[0].output.splitlines()
        cells = first_row.split(",")
        cells[3] = repr(float(cells[3]) * 1.5)
        ops[0].output = "\n".join([header, ",".join(cells), *rest]) + "\n"
        checker = Checker()
        verify(workload, ops, checker)
    finally:
        workload.close()
    assert checker.failed == 1 * workload.realizations
    assert "CSV row" in checker.messages[0]


def test_repeat_that_differs_from_its_first_run_counts_as_failed():
    workload = WORKLOADS["plan-k100"](3, tiny=True)
    workload.setup()
    ops = [workload.run_op(slot) for slot in (0, 1, 0)]
    ops[2].output = dataclasses.replace(ops[2].output, iterations=ops[2].output.iterations + 1)
    checker = Checker()
    verify(workload, ops, checker)
    assert (checker.attempted, checker.failed) == (3, 1)


def test_checkout_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(
        "--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench").exists()


def test_layer_spans_nest_under_the_caller():
    from tracer import Tracer

    inst = make_instance(5, 6, 4, 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            solver.solve(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names[:2] == ["bench.op", "solver.solve"]
    parents = {span[0]: tracer.spans[span[3]][0] for span in tracer.spans if span[3] >= 0}
    assert parents["latency.total_delay"] == "solver.solve"
    assert parents["solver.allocate_given_decision"] == "solver.solve"
    assert latency.total_delay.__module__ == "fogplan.latency" and not hasattr(latency.total_delay, "__wrapped__")


def test_checks_stay_out_of_the_layer_figures():
    from tracer import Tracer

    inst = make_instance(5, 6, 4, 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.op"):
            result = solver.solve(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
        with tracer.span("bench.check"):
            solver.solve(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
            _check(inst, result)
    finally:
        tracer.uninstall()
    layer = tracer.layer_metrics()
    assert layer["solver.solve.calls"] == 1
    assert tracer.counters["solver.iterations"] == result.iterations
    assert layer["solver.offload_objective.calls"] == 1 and layer["latency.check_feasibility.calls"] == 1
    check = next(idx for idx, span in enumerate(tracer.spans) if span[0] == "bench.check")
    before = [span[0] for span in tracer.spans[:check]]
    after = [span[0] for span in tracer.spans[check:]]
    for name in ("solver.allocate_given_decision", "latency.total_delay"):
        assert layer[f"{name}.calls"] == before.count(name) < after.count(name)


def test_oracle_assignments_count_the_scored_assignments():
    from tracer import Tracer

    inst = make_instance(5, 6, 4, 2, 1)
    tracer = Tracer()
    tracer.install()
    try:
        oracle.enumerate_optimal(inst.topology, inst.tasks, inst.rates, Scheme.CLOUD_DU)
        scored = tracer.counters["oracle.assignments"]
        oracle._Pools(inst.tasks, inst.topology).objective(np.zeros(inst.tasks.num_tasks, dtype=np.int64))
    finally:
        tracer.uninstall()
    assert scored == len(Scheme.CLOUD_DU.allowed_tiers) ** inst.tasks.num_tasks
    assert tracer.counters["oracle.assignments"] == scored + 1
    assert oracle._Pools is solver._Pools
