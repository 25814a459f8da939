"""fogplan benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Runs one workload named in BENCHMARK.json
in a fresh child process (`worker.py`) with BLAS/OpenMP threads set to 1 in
that child's environment only, and fogplan imported from the checkout's
`src`.  With `--trace 0` it also starts the workload's set-up alone in six
more fresh processes, one after another, and reports the median set-up time.
It prints a report with every metric by name and unit, then, as the last
line, one JSON object with `correct`, `attempted`, `failed` and the metrics
BENCHMARK.json lists for the mode: `end_to_end` untraced, `per_layer` traced.
Exits with code 2, printing no result, where the checkout has no fogplan
sources, and with code 1 if a workload process fails or runs too long.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list[str], deadline: float) -> tuple[dict, float]:
    """Start worker.py, wait for it, and return its result and spawn time."""
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process ran past the {DEADLINE_S:.0f} s deadline") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"workload process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("workload process printed no result")
    return json.loads(lines[-1]), spawned


def format_value(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def report(args, bench: dict, result: dict, metrics: dict, setups: list[float]) -> None:
    notes = result["notes"]
    print(f"# fogplan benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# " + " ".join(f"{key}={format_value(value)}" for key, value in notes.items() if key != "solve_tail"))
    listed = bench["per_layer" if args.trace else "end_to_end"]
    for metric in listed:
        line = f"{metric['name']} {format_value(metrics[metric['name']])} {metric['unit']}"
        if metric["name"] == "setup_s":
            line += f"  (median of {len(setups)} fresh processes: {', '.join(f'{s:.4f}' for s in setups)})"
        print(line)
    if not args.trace:
        if notes["solve_tail"] is None:
            print(f"solve_tail_s omitted: {notes['solves']} solves, too few for ten above p50")
        else:
            value, percentile = notes["solve_tail"]
            print(f"solve_tail_s {value:.6g} s  (p{percentile} of {notes['solves']} solves)")
        for name in ("oracle_gap_p50", "oracle_gap_max"):
            if name in notes:
                print(f"{name} {notes[name]:.6g} ratio")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6g} ratio  ({failed} of {attempted} plans)")
    for message in result["failures"]:
        print(f"failure: {message}")
    print("digest " + json.dumps(result["digest"], sort_keys=True))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the fogplan benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="shrink every input, for the benchmark's own tests")
    args = parser.parse_args(argv)

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "fogplan" / "__init__.py").is_file():
            raise BenchError(f"no fogplan sources under {ROOT / 'src'}; run from the root of a checkout")
        if args.workload not in {w["name"] for w in bench["workloads"]}:
            raise BenchError(f"unknown workload {args.workload!r}")
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                ready, spawned = run_worker(common + ["--setup-only"], deadline)
                setups.append(ready["ready"] - spawned)
        result, spawned = run_worker(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
        setups.append(result["ready"] - spawned)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    missing = [metric["name"] for metric in listed if metric["name"] not in metrics]
    if missing:
        print(f"error: the workload did not measure {', '.join(missing)}", file=sys.stderr)
        return 1

    report(args, bench, result, metrics, setups)
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0 and result["attempted"] > 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
