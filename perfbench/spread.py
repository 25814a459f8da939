"""Run the benchmark on several seeds per workload and summarise it the way a
regression check judges it.

    python3 perfbench/spread.py --seeds 1-10 [--repeat-seed]
        [--against old.json] [--out summary.json]

Every workload in BENCHMARK.json runs for its `run_seconds`.  For each
workload and end-to-end metric it prints the median over the seeds, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the distance
between the quartiles as a share of the median, next to the metric's bound
from BENCHMARK.json, and fails if a spread other than setup_s's exceeds the
bound.  `--repeat-seed` runs the first seed again, untraced and traced, and
requires the exact counts and quality numbers (the `digest` line) to repeat
bit for bit.  `--against` compares the medians with an earlier summary and
flags any metric worse by more than its bound.  Runs are sequential, so at
most one workload process runs at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run: its result line and its digest line."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    digest = next(json.loads(line[len("digest "):]) for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median),
        "values": values,
    }


def versions() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": f"{platform.system()} {platform.machine()}",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--repeat-seed", action="store_true")
    parser.add_argument("--against", help="an earlier summary to compare medians with")
    parser.add_argument("--commit", default="", help="recorded in the summary")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    seconds = bench["run_seconds"]
    seeds = parse_seeds(args.seeds)
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    summary = {"commit": args.commit, **versions(), "seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True

    for name in why:
        runs = []
        for seed in seeds:
            result, digest = run_once(name, seed, seconds, 0)
            runs.append(result)
            print(f"{name} seed {seed}: " + " ".join(
                f"{metric}={value['value']:.6g}" for metric, value in result["metrics"].items()
            ) + f" failed={result['failed']}/{result['attempted']}", flush=True)
        entry = {
            "why": why[name],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": {},
        }
        ok &= entry["failed"] == 0 and all(r["correct"] for r in runs)
        for metric in bench["end_to_end"]:
            stats = summarise([r["metrics"][metric["name"]]["value"] for r in runs])
            stats["bound"] = metric["bound"]
            entry["metrics"][metric["name"]] = stats
            line = (f"  {metric['name']:<14} median {stats['median']:.6g} {metric['unit']}  "
                    f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {stats['spread']:.2%} "
                    f"(bound {metric['bound']:.0%}, a third {metric['bound'] / 3:.2%})")
            # A regression check judges set-up time by its median only: a
            # median of seven process starts spreads with the machine's load.
            if metric["name"] != "setup_s" and stats["spread"] > metric["bound"]:
                line += "  SPREAD ABOVE BOUND"
                ok = False
            before = earlier.get(name, {}).get("metrics", {}).get(metric["name"])
            if before:
                change = stats["median"] / before["median"] - 1.0
                worse = change > metric["bound"] if metric["better"] == "lower" else -change > metric["bound"]
                line += f"  vs earlier {change:+.2%}" + ("  WORSE THAN BOUND" if worse else "")
                ok &= not worse
            print(line, flush=True)
        if args.repeat_seed:
            for trace in (0, 1):
                first = run_once(name, seeds[0], seconds, trace)[1]
                second = run_once(name, seeds[0], seconds, trace)[1]
                same = first == second
                entry[f"repeats_exactly_trace{trace}"] = same
                print(f"  seed {seeds[0]} trace {trace} digest repeats exactly: {same}", flush=True)
                ok &= same
        summary["workloads"][name] = entry

    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
