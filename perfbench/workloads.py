"""The benchmark's workloads.

Each workload is a closed loop with one caller, a researcher's script that
waits for every plan.  It makes a pool of operations from the workload seed;
the timed loop runs whole passes over the pool until the run's time is up.
The quality numbers come from the first pass, so they repeat bit for bit
per seed, and later passes must reproduce the first exactly.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fogplan import cli, oracle, phy, scenario, solver
from fogplan.scenario import ScenarioSpec, Scheme

from checks import fingerprint, oracle_problems
from tracer import maybe_span


def derive_seed(seed: int, *parts) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and a label."""
    digest = hashlib.sha256(repr((int(seed),) + parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


@dataclass(frozen=True)
class Instance:
    topology: object
    tasks: object
    rates: np.ndarray


def make_instance(scenario_seed: int, channel_seed: int, users: int, rus: int, dus: int) -> Instance:
    generated = scenario.generate_scenario(
        ScenarioSpec(num_users=users, num_rus=rus, num_dus=dus, seed=scenario_seed)
    )
    channels = phy.generate_channels(
        generated.topology, generated.ru_positions_m, generated.user_positions_m, seed=channel_seed
    )
    return Instance(generated.topology, generated.tasks, phy.uplink_rates(generated.topology, channels))


@dataclass
class Op:
    """One timed operation: its pool slot, the wall time of each `solve` it
    called, and its output, or the error it raised."""

    slot: int
    solve_s: list
    output: object
    error: str | None = None


class Workload:
    name = ""
    pool_size = 0
    plans_per_op = 1

    def setup(self) -> None:
        """Make the inputs and warm up; runs before the first timed operation."""

    def run_op(self, slot: int) -> Op:
        raise NotImplementedError

    def fingerprint(self, output):
        raise NotImplementedError

    def check_first_pass(self, ops: list, checker, tracer) -> dict:
        """Check the first pass, given as (op number, Op) pairs of the ops
        that returned, and return its quality numbers."""
        raise NotImplementedError

    def digest(self, ops: list) -> str:
        """Hash of the first pass's outputs, compared across runs of one seed."""
        return hashlib.sha256(repr([self.fingerprint(op.output) for _, op in ops]).encode()).hexdigest()

    def close(self) -> None:
        pass


class PlanK100(Workload):
    """FOG `solve` at the default topology on a fixed pool of placement
    problems (scenario seeds 0-4); the workload seed draws every user's
    channel.  Solve time differs several-fold between K=100 placement
    problems (1.3 s to 6.2 s over twelve seed-drawn ones on a 2-core x86-64
    VM), so a pool of five drawn from the workload seed would move a run's
    median by more than any bound a regression check could use.

    The solver's work therefore does not depend on the seed: `solve` uses the
    uplink rates only for the returned plan's total delay, so every seed
    makes the same five decisions with the same iterations and duality gap.
    The seed moves only `mean_delay_s`, through the access delays, and the
    timing differences between seeds are repetition noise.  Other placement
    problems are exercised by `recipes-desk` and `oracle-k6`, whose
    instances are drawn from the seed."""

    name = "plan-k100"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.users = 10 if tiny else 100
        self.pool_size = 2 if tiny else 5
        self.instances: list[Instance] = []

    def setup(self) -> None:
        self.instances = [
            make_instance(slot, derive_seed(self.seed, self.name, slot), self.users, 10, 4)
            for slot in range(self.pool_size)
        ]
        warm = make_instance(0, derive_seed(self.seed, self.name, "warm-up"), 8, 4, 2)
        solver.solve(warm.topology, warm.tasks, warm.rates, Scheme.FOG)

    def run_op(self, slot: int) -> Op:
        inst = self.instances[slot]
        start = time.perf_counter()
        result = solver.solve(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
        return Op(slot, [time.perf_counter() - start], result)

    def fingerprint(self, output):
        return fingerprint(output)

    def check_first_pass(self, ops, checker, tracer) -> dict:
        for index, op in ops:
            inst = self.instances[op.slot]
            with maybe_span(tracer, "bench.check"):
                checker.check_plan(index, 0, inst.topology, inst.tasks, inst.rates, Scheme.FOG, op.output)
        return {
            "mean_delay_s": statistics.fmean(op.output.total_delay_s for _, op in ops),
            "certified_gap": statistics.fmean(op.output.duality_gap for _, op in ops),
        }


class OracleK6(Workload):
    """FOG `solve` plus `enumerate_optimal` on seed-drawn desk instances."""

    name = "oracle-k6"

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.users = 3 if tiny else 6
        self.pool_size = 3 if tiny else 200
        self.instances: list[Instance] = []

    def setup(self) -> None:
        self.instances = [
            make_instance(
                derive_seed(self.seed, self.name, "scenario", slot),
                derive_seed(self.seed, self.name, "channels", slot),
                self.users,
                4,
                2,
            )
            for slot in range(self.pool_size)
        ]
        warm = make_instance(0, derive_seed(self.seed, self.name, "warm-up"), 3, 2, 1)
        solver.solve(warm.topology, warm.tasks, warm.rates, Scheme.FOG)
        oracle.enumerate_optimal(warm.topology, warm.tasks, warm.rates, Scheme.FOG)

    def run_op(self, slot: int) -> Op:
        inst = self.instances[slot]
        start = time.perf_counter()
        result = solver.solve(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
        solved = time.perf_counter()
        truth = oracle.enumerate_optimal(inst.topology, inst.tasks, inst.rates, Scheme.FOG)
        return Op(slot, [solved - start], (result, truth))

    def fingerprint(self, output):
        result, truth = output
        return fingerprint(result) + (truth.decision.tiers, truth.total_delay_s)

    def check_first_pass(self, ops, checker, tracer) -> dict:
        gaps = []
        for index, op in ops:
            inst = self.instances[op.slot]
            result, truth = op.output
            with maybe_span(tracer, "bench.check"):
                checker.check_plan(index, 0, inst.topology, inst.tasks, inst.rates, Scheme.FOG, result)
                problems = oracle_problems(inst.topology, inst.tasks, inst.rates, result, truth)
            if problems:
                checker.fail(index, "; ".join(problems))
            gaps.append((result.total_delay_s - truth.total_delay_s) / truth.total_delay_s)
        return {
            "mean_delay_s": statistics.fmean(op.output[0].total_delay_s for _, op in ops),
            "certified_gap": statistics.fmean(op.output[0].duality_gap for _, op in ops),
            "oracle_gap_p50": statistics.median(gaps),
            "oracle_gap_max": max(gaps),
        }


# The README's four reproduction recipes: swept parameter, range, and --set
# overrides.  Values stay strings so the command line matches the README.
RECIPES = (
    ("fl", "1e9", "5e9", ()),
    ("fh", "1e10", "5e10", ()),
    ("bh", "1e8", "9e8", ("bl=4e8",)),
    ("bl", "1e8", "9e8", ("fl=1e9,5e9", "fh=1e10,5e10")),
)
SPEC_FIELDS = {
    "fl": "mecl_capacity_hz",
    "fh": "mech_capacity_hz",
    "bl": "fronthaul_capacity_hz",
    "bh": "midhaul_capacity_hz",
}
SCHEMES = (Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU, Scheme.CLOUD)
CSV_HEADER = "sweep_param,value,scheme,mean_total_delay_s,stderr,realizations,infeasible_count"


def _overrides(entries) -> dict:
    out = {}
    for entry in entries:
        key, _, value = entry.partition("=")
        parts = [float(tok) for tok in value.split(",")]
        out[SPEC_FIELDS[key]] = parts[0] if len(parts) == 1 else (parts[0], parts[1])
    return out


class RecipesDesk(Workload):
    """The four README sweep recipes through `fogplan.cli.main`, each with a
    seed-drawn `--seed`; every cell is replayed through the public API to
    check its plans and the CSV."""

    name = "recipes-desk"

    def __init__(self, seed: int, tiny: bool = False):
        self.users, self.rus, self.dus = (3, 2, 1) if tiny else (8, 4, 2)
        self.steps = 2 if tiny else 5
        self.realizations = 1 if tiny else 10
        self.pool_size = len(RECIPES)
        self.plans_per_op = self.steps * self.realizations * len(SCHEMES)
        self.base_seeds = [derive_seed(seed, self.name, recipe[0]) for recipe in RECIPES]
        self.workdir: Path | None = None

    def _argv(self, slot: int, base_seed: int, out: Path) -> list[str]:
        param, start, stop, sets = RECIPES[slot]
        argv = [
            "--sweep", f"{param}={start}:{stop}:{self.steps}",
            "--users", str(self.users), "--rus", str(self.rus), "--dus", str(self.dus),
            "--realizations", str(self.realizations), "--seed", str(base_seed),
            "--scheme", "all", "--out", str(out),
        ]
        for entry in sets:
            argv += ["--set", entry]
        return argv

    def setup(self) -> None:
        root = Path(__file__).resolve().parent.parent / ".perfbench"
        root.mkdir(exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="recipes-", dir=root))
        warm = self.workdir / "warm-up.csv"
        argv = ["--sweep", "fl=1e9:5e9:2", "--users", "3", "--rus", "2", "--dus", "1", "--out", str(warm)]
        if cli.main(argv) != 0:
            raise RuntimeError("warm-up sweep failed")

    def run_op(self, slot: int) -> Op:
        out = self.workdir / f"{RECIPES[slot][0]}.csv"
        code = cli.main(self._argv(slot, self.base_seeds[slot], out))
        if code != 0:
            raise RuntimeError(f"fogplan exited with code {code}")
        return Op(slot, [], out.read_text())

    def fingerprint(self, output):
        return output

    def check_first_pass(self, ops, checker, tracer) -> dict:
        delays, gaps, solve_s = [], [], []
        for index, op in ops:
            with maybe_span(tracer, "bench.check"):
                self._check_recipe(index, op, checker, delays, gaps, solve_s)
        return {
            "mean_delay_s": statistics.fmean(delays),
            "certified_gap": statistics.fmean(gaps),
            "solve_s": solve_s,
        }

    def _check_recipe(self, index, op, checker, delays, gaps, solve_s) -> None:
        param, start, stop, sets = RECIPES[op.slot]
        base_seed = self.base_seeds[op.slot]
        lines = op.output.splitlines()
        values = [float(v) for v in np.linspace(float(start), float(stop), self.steps)]
        if lines[:1] != [CSV_HEADER] or len(lines) != 1 + len(values) * len(SCHEMES):
            checker.fail(index, f"{param} CSV has an unexpected header or {len(lines)} lines")
            return
        overrides = _overrides(sets)
        rows = iter(line.split(",") for line in lines[1:])
        for p, value in enumerate(values):
            totals = {scheme: [] for scheme in SCHEMES}
            for r in range(self.realizations):
                seed = cli.realization_seed(base_seed, r)
                spec = ScenarioSpec(
                    num_users=self.users, num_rus=self.rus, num_dus=self.dus, seed=seed,
                    **{**overrides, SPEC_FIELDS[param]: value},
                )
                generated = scenario.generate_scenario(spec)
                channels = phy.generate_channels(
                    generated.topology, generated.ru_positions_m, generated.user_positions_m,
                    seed=cli.channel_seed(seed),
                )
                rates = phy.uplink_rates(generated.topology, channels)
                for scheme in SCHEMES:
                    started = time.perf_counter()
                    result = solver.solve(generated.topology, generated.tasks, rates, scheme)
                    solve_s.append(time.perf_counter() - started)
                    checker.check_plan(
                        index, (p, r, scheme.name), generated.topology, generated.tasks, rates, scheme, result
                    )
                    totals[scheme].append(result.total_delay_s)
                    if scheme is Scheme.FOG:
                        gaps.append(result.duality_gap)
            means = {}
            for scheme in SCHEMES:
                row = next(rows)
                feasible = [v for v in totals[scheme] if math.isfinite(v)]
                expected = [
                    param, value, scheme.cli_name,
                    sum(feasible) / len(feasible) if feasible else math.inf,
                    self.realizations, self.realizations - len(feasible),
                ]
                try:
                    got = [row[0], float(row[1]), row[2], float(row[3]), int(row[5]), int(row[6])]
                except (ValueError, IndexError):
                    checker.fail(index, f"{param} CSV row {row} does not parse")
                    return
                keys = {(p, r, scheme.name) for r in range(self.realizations)}
                if got != expected:
                    checker.fail(index, f"{param} CSV row {row} != replayed {expected}", keys)
                means[scheme] = got[3]
                if math.isfinite(got[3]):
                    delays.append(got[3])
            fog = means[Scheme.FOG]
            for scheme in SCHEMES[1:]:
                if not fog <= means[scheme] * (1 + 1e-9):
                    keys = {(p, r, Scheme.FOG.name) for r in range(self.realizations)}
                    checker.fail(index, f"{param}={value!r}: fog {fog!r} s above {scheme.cli_name}", keys)

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (RecipesDesk, PlanK100, OracleK6)}
