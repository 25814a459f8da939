"""Run one workload in this fresh process and print its result as one JSON
line.  `run.py` starts it with PYTHONPATH set to the checkout's `src` and
BLAS/OpenMP threads set to 1.

Untraced (`--trace 0`): set up, run whole passes over the workload's pool
until `--seconds` have passed, then check every plan.  Traced
(`--trace 1`): one untraced pass, then the same pass with every layer
function wrapped, so the difference is the tracing overhead; the spans are
written under `.perfbench/spans/` when the run ends.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import fogplan

from checks import Checker
from tracer import Tracer, maybe_span
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent


def timed_loop(workload, seconds: float, tracer=None):
    """Run whole passes over the pool until `seconds` have passed, at least
    one, so every run weighs each slot equally; returns the ops and the
    loop's wall time."""
    ops = []
    start = time.perf_counter()
    while True:
        slot = len(ops) % workload.pool_size
        with maybe_span(tracer, "bench.op"):
            try:
                op = workload.run_op(slot)
            except Exception as exc:  # a failed operation is counted, not fatal
                op = Op(slot, [], None, f"slot {slot} raised {type(exc).__name__}: {exc}")
        ops.append(op)
        elapsed = time.perf_counter() - start
        if len(ops) % workload.pool_size == 0 and elapsed >= seconds:
            return ops, elapsed


def verify(workload, ops, checker, tracer=None) -> dict:
    """Check the first pass in full and every later op against it."""
    for index, op in enumerate(ops):
        checker.attempt(index, workload.plans_per_op)
        if op.error is not None:
            checker.fail(index, op.error)
    first = [(index, op) for index, op in enumerate(ops[: workload.pool_size]) if op.error is None]
    quality = workload.check_first_pass(first, checker, tracer) if first else {}
    reference = {op.slot: workload.fingerprint(op.output) for _, op in first}
    for index, op in enumerate(ops[workload.pool_size :], start=workload.pool_size):
        if op.error is None and workload.fingerprint(op.output) != reference.get(op.slot):
            checker.fail(index, f"slot {op.slot} did not reproduce its first run")
    quality["digest"] = workload.digest(first)
    return quality


def tail(samples: list) -> tuple[float, int] | None:
    """Highest whole percentile with at least ten samples above it (nearest
    rank), from p50 up; None when there are too few samples."""
    n = len(samples)
    p = (100 * (n - 10)) // n if n else 0
    if p < 50:
        return None
    ordered = sorted(samples)
    rank = -(-p * n // 100)
    return ordered[rank - 1], p


def untraced_run(workload, checker, seconds: float) -> tuple[dict, dict, dict]:
    ops, elapsed = timed_loop(workload, seconds)
    quality = verify(workload, ops, checker)
    completed = sum(op.error is None for op in ops) * workload.plans_per_op
    solve_s = quality.pop("solve_s", None) or [t for op in ops for t in op.solve_s]
    metrics = {
        "plans_per_s": completed / elapsed,
        "solve_p50_s": statistics.median(solve_s) if solve_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_delay_s": quality.get("mean_delay_s", 0.0),
        "certified_gap": quality.get("certified_gap", 0.0),
    }
    notes = {
        "ops": len(ops),
        "passes": len(ops) / workload.pool_size,
        "timed_s": elapsed,
        "solves": len(solve_s),
        "solve_tail": tail(solve_s),
    }
    for name in ("oracle_gap_p50", "oracle_gap_max"):
        if name in quality:
            notes[name] = quality[name]
    exact = ("digest", "mean_delay_s", "certified_gap", "oracle_gap_p50", "oracle_gap_max")
    digest = {name: quality[name] for name in exact if name in quality}
    return metrics, notes, digest


def traced_run(workload, checker, tracer) -> tuple[dict, dict, dict]:
    untraced_ops, untraced_s = timed_loop(workload, 0.0)
    tracer.install()
    try:
        traced_ops, traced_s = timed_loop(workload, 0.0, tracer)
        quality = verify(workload, traced_ops, checker, tracer)
    finally:
        tracer.uninstall()
    for index, (plain, traced) in enumerate(zip(untraced_ops, traced_ops)):
        if plain.error is not None:
            checker.fail(index, f"untraced pass: {plain.error}")
        elif traced.error is None and workload.fingerprint(plain.output) != workload.fingerprint(traced.output):
            checker.fail(index, "tracing changed the output")

    layer = tracer.layer_metrics()
    counters = tracer.counters
    solves = layer["solver.solve.calls"]
    enumerate_s = layer["oracle.enumerate_optimal.busy_s"]
    metrics = {
        **layer,
        "solver.iterations": counters["solver.iterations"],
        "solver.converged_frac": counters["solver.converged"] / solves if solves else 0.0,
        "solver.objective_eval_us": tracer.median_duration_s("solver.offload_objective") * 1e6,
        "phy.zero_rate_users": counters["phy.zero_rate_users"],
        "latency.infeasible_plans": checker.infeasible_plans,
        "oracle.assignments": counters["oracle.assignments"],
        "oracle.assignments_per_s": counters["oracle.assignments"] / enumerate_s if enumerate_s > 0 else 0.0,
        "bench.trace_overhead_frac": traced_s / untraced_s - 1.0,
    }
    notes = {"ops": len(traced_ops), "traced_s": traced_s, "untraced_s": untraced_s, "spans": len(tracer.spans)}
    exact = [name for name in metrics if name.endswith(".calls")]
    exact += ["solver.iterations", "oracle.assignments", "phy.zero_rate_users", "latency.infeasible_plans"]
    digest = {name: metrics[name] for name in exact}
    digest.update({k: quality[k] for k in ("digest", "mean_delay_s", "certified_gap") if k in quality})
    return metrics, notes, digest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(fogplan.__file__).resolve().parents:
        print(f"error: imported fogplan from {fogplan.__file__}, not from {src}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    tracer = Tracer() if args.trace else None
    checker = Checker()
    try:
        if tracer is not None:
            tracer.install()
        try:
            with maybe_span(tracer, "bench.setup"):
                workload.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        ready = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready": ready}))
            return 0
        if tracer is not None:
            metrics, notes, digest = traced_run(workload, checker, tracer)
            tracer.write(ROOT / ".perfbench" / "spans" / f"{args.workload}-seed{args.seed}.json")
        else:
            metrics, notes, digest = untraced_run(workload, checker, args.seconds)
    finally:
        workload.close()

    print(
        json.dumps(
            {
                "ready": ready,
                "metrics": metrics,
                "notes": notes,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "failures": checker.messages,
                "digest": digest,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
