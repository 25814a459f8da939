"""Experiment runner: scenario generation, parameter sweeps, scheme comparison,
oracle gap checks, and CSV emission.

One command, three modes chosen by flags: `--sweep` averages total delay per
scheme over seeded realizations for each sweep point, `--oracle-check`
reports the solver-vs-exhaustive gap distribution on small instances, and the
default mode plans a single scenario and prints the per-task breakdown.  The
tool emits plot data (CSV), never images.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import oracle as oracle_mod
from .latency import _FAMILIES, _FAMILY_TIERS, task_delay
from .phy import DEFAULT_NUM_ANTENNAS, generate_channels, uplink_rates
from .scenario import Scenario, ScenarioSpec, Scheme, _with_capacity, generate_scenario, load_scenario, save_scenario
from .solver import SolveResult, SolverConfig, _solve_batch, solve

SWEEP_PARAMETERS = {
    "fl": "mecl_capacity_hz",
    "fh": "mech_capacity_hz",
    "bl": "fronthaul_capacity_hz",
    "bh": "midhaul_capacity_hz",
    "k": "num_users",
}

SWEEP_CSV_COLUMNS = (
    "sweep_param",
    "value",
    "scheme",
    "mean_total_delay_s",
    "stderr",
    "realizations",
    "infeasible_count",
)

ORACLE_CSV_COLUMNS = ("scheme", "realization", "seed", "solver_total_s", "oracle_total_s", "rel_gap")

# Fixed offset separating the channel stream from the scenario stream when
# both are derived from one realization seed.
_CHANNEL_SEED_SALT = 0x9E3779B97F4A7C15
_SEED_MASK = (1 << 64) - 1


def channel_seed(scenario_seed: int) -> int:
    return (int(scenario_seed) ^ _CHANNEL_SEED_SALT) & _SEED_MASK


def realization_seed(base_seed: int, realization: int) -> int:
    return (int(base_seed) ^ int(realization)) & _SEED_MASK


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter (fl, fh, bl, bh or k), its value grid, and how many
    seeded realizations to average per point."""

    parameter: str
    start: float
    stop: float
    steps: int
    realizations: int = 1
    base_seed: int = 0
    overrides: dict = field(default_factory=dict)

    def __post_init__(self):
        name = self.parameter.strip().lower()
        if name not in SWEEP_PARAMETERS:
            raise ValueError(
                f"unknown sweep parameter '{self.parameter}' (expected one of {sorted(SWEEP_PARAMETERS)})"
            )
        object.__setattr__(self, "parameter", name)
        if self.steps < 2:
            raise ValueError("a sweep needs at least 2 steps")
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")
        if not (self.start > 0 and self.stop > 0):
            raise ValueError("sweep range must be strictly positive")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError(f"sweep range of {name} must be finite")

    def values(self) -> list[float]:
        grid = np.linspace(self.start, self.stop, self.steps)
        if self.parameter == "k":
            ints = np.rint(grid)
            if (ints < 1).any():
                raise ValueError("user counts in a sweep must be at least 1")
            return [float(v) for v in ints]
        return [float(v) for v in grid]


def _spec_for_point(base: ScenarioSpec, sweep: SweepSpec, value: float, seed: int) -> ScenarioSpec:
    field_name = SWEEP_PARAMETERS[sweep.parameter]
    if field_name == "num_users":
        return dataclasses.replace(base, num_users=int(value), seed=seed)
    return dataclasses.replace(base, **{field_name: value}, seed=seed)


def _rates(scenario: Scenario, seed: int, num_antennas: int) -> np.ndarray:
    """Uplink rates of a scenario under the channels drawn from its seed."""
    channels = generate_channels(
        scenario.topology,
        scenario.ru_positions_m,
        scenario.user_positions_m,
        seed=channel_seed(seed),
        num_antennas=num_antennas,
    )
    return uplink_rates(scenario.topology, channels)


def _realize(spec: ScenarioSpec, num_antennas: int) -> tuple[Scenario, np.ndarray]:
    """The scenario drawn from a spec and its uplink rates, both from the
    spec's seed."""
    scenario = generate_scenario(spec)
    return scenario, _rates(scenario, spec.seed, num_antennas)


# The tiers whose plans draw on the capacity each capacity sweep sets: those
# with a leg on its family in `latency`'s model table.
_DRAWING_TIERS = {parameter: _FAMILY_TIERS[family] for parameter, field in SWEEP_PARAMETERS.items()
                  for family in _FAMILIES if family.capacity == field}


def _sweep_share(args) -> dict[tuple[int, int, int], float]:
    """Total delay of each scheme in each of a share's realizations at each of
    its sweep points (inf marks an infeasible realization), keyed by the
    sweep's (point, realization, scheme) indices.

    The share's problems are drawn lazily, point-major, and planned as one
    stream of batches, keeping only each plan's total delay.  A capacity
    sweep point changes one capacity field, which `generate_scenario` fills
    without a random draw, so each realization's scenario, channels and rates
    are drawn once, at the share's first point, and only the swept field is
    set at the others (`scenario._with_capacity`, which checks that field
    alone).  Under a scheme none of whose tiers draws on the swept
    capacity (`_DRAWING_TIERS`), no plan reads it (the solver does not even
    price it), so the scheme is planned at the first point only and that
    total holds at every point.  A `k` sweep draws every point and plans
    every problem."""
    sweep, base, points, realizations, schemes, config, num_antennas = args
    field, values = SWEEP_PARAMETERS[sweep.parameter], sweep.values()
    drawing = _DRAWING_TIERS.get(sweep.parameter)  # None for a k sweep
    every = range(len(schemes))
    varying = [s for s in every if drawing is None or not drawing.isdisjoint(schemes[s].allowed_tiers)]
    first, cells = points.start, []

    def problems():
        drawn = {}  # per realization: its scenario and rates
        for p in range(first, points.stop if varying else first + 1):
            for r in range(realizations.start, realizations.stop):
                if p == first or drawing is None:
                    spec = _spec_for_point(base, sweep, values[p], realization_seed(sweep.base_seed, r))
                    drawn[r] = _realize(spec, num_antennas)
                scenario, rates = drawn[r]
                topology = scenario.topology
                if p != first and drawing is not None:
                    topology = _with_capacity(topology, field, np.full(getattr(topology, field).size, values[p]))
                for s in every if p == first else varying:
                    cells.append((p, r, s))
                    yield topology, scenario.tasks, rates, schemes[s]

    totals = {cells[position]: plan.total_delay_s for position, plan in _solve_batch(problems(), config)}
    for p in range(first + 1, points.stop):
        for r in range(realizations.start, realizations.stop):
            for s in every:
                totals.setdefault((p, r, s), totals[first, r, s])
    return totals


def _sweep_shares(num_points: int, num_realizations: int, workers: int) -> list[tuple[slice, slice]]:
    """(points, realizations) slices of the shares of a sweep on `workers`
    processes, realization-major.  The realizations are split into contiguous
    shares of ceil(R / workers) at every point; with fewer realizations than
    workers, each realization's points are split into contiguous groups
    instead, so that every worker gets a share (at most one per point)."""
    if num_realizations >= workers:
        size = -(-num_realizations // workers)
        starts = range(0, num_realizations, size)
        return [(slice(0, num_points), slice(r, min(r + size, num_realizations))) for r in starts]
    shares = []
    for r in range(num_realizations):
        groups = min(num_points, workers // num_realizations + (r < workers % num_realizations))
        bounds = [num_points * g // groups for g in range(groups + 1)]
        shares += [(slice(a, b), slice(r, r + 1)) for a, b in zip(bounds, bounds[1:])]
    return shares


def _one_blas_thread() -> None:
    """Run this process's BLAS on one thread: a sweep's worker processes
    already use every core, and each one's default BLAS thread per core
    would contend with the others.  numpy's bundled OpenBLAS takes the
    count through `scipy_openblas_set_num_threads64_`, reached through
    numpy's core extension module, which links it; a BLAS without that
    entry point is left as it is."""
    import ctypes

    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    setter = getattr(ctypes.CDLL(_multiarray_umath.__file__), "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def run_sweep(
    sweep: SweepSpec,
    schemes: tuple[Scheme, ...],
    base: ScenarioSpec,
    config: SolverConfig | None = None,
    num_antennas: int = DEFAULT_NUM_ANTENNAS,
    workers: int = 1,
) -> list[dict]:
    """Mean total delay per (sweep point, scheme), averaged over realizations.

    Realization r always uses seed base_seed xor r, for every sweep point, so
    points share random draws and curves differ only through the swept value.
    The work is split into at most `workers` shares (`_sweep_shares`), and
    each share plans all its points x realizations x schemes as one stream of
    batches (`_sweep_share`).  Infeasible realizations (a user with zero
    rate) are counted and excluded from the mean.  No problem in a batch
    reads another's numbers, so output row order and content are
    deterministic and do not depend on `workers`.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    config = config or SolverConfig()
    base = dataclasses.replace(base, **sweep.overrides) if sweep.overrides else base
    values = sweep.values()
    shares = [
        (sweep, base, points, realizations, tuple(schemes), config, num_antennas)
        for points, realizations in _sweep_shares(len(values), sweep.realizations, workers)
    ]
    if len(shares) > 1:
        # Imported here: multiprocessing costs every importer of this module
        # memory that serial runs never use.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(shares), initializer=_one_blas_thread) as pool:
            outcomes = list(pool.map(_sweep_share, shares, chunksize=1))
    else:
        outcomes = [_sweep_share(shares[0])]
    totals = {cell: total for outcome in outcomes for cell, total in outcome.items()}

    feasible = {(p, s): [v for v in (totals[p, r, s] for r in range(sweep.realizations)) if math.isfinite(v)]
                for p in range(len(values)) for s in range(len(schemes))}
    # Each cell's sample deviation, np.std of its feasible totals; the cells
    # of one count are one call.
    spread = {}
    for n in {len(cell) for cell in feasible.values()} - {0, 1}:
        keys = [key for key, cell in feasible.items() if len(cell) == n]
        spread.update(zip(keys, np.std([feasible[key] for key in keys], axis=1, ddof=1).tolist()))
    rows = []
    for p, value in enumerate(values):
        for s, scheme in enumerate(schemes):
            n = len(feasible[p, s])
            mean = sum(feasible[p, s]) / n if n else math.inf
            stderr = spread[p, s] / math.sqrt(n) if n > 1 else 0.0
            rows.append(
                {
                    "sweep_param": sweep.parameter,
                    "value": value,
                    "scheme": scheme.cli_name,
                    "mean_total_delay_s": mean,
                    "stderr": stderr,
                    "realizations": sweep.realizations,
                    "infeasible_count": sweep.realizations - n,
                }
            )
    return rows


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def format_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_csv_cell(row[col]) for col in columns) for row in rows)
    return "\n".join(lines) + "\n"


def compare_oracle(
    base: ScenarioSpec,
    schemes: tuple[Scheme, ...],
    realizations: int,
    config: SolverConfig | None = None,
    num_antennas: int = DEFAULT_NUM_ANTENNAS,
    cap: int = oracle_mod.DEFAULT_ENUMERATION_CAP,
) -> tuple[list[dict], list[dict]]:
    """Relative solver-vs-exhaustive gap per realization, plus per-scheme
    median/p95/max summary rows."""
    if realizations < 1:
        raise ValueError(f"realizations must be at least 1, got {realizations}")
    config = config or SolverConfig()
    rows = []
    for r in range(realizations):
        seed = realization_seed(base.seed, r)
        scenario, rates = _realize(dataclasses.replace(base, seed=seed), num_antennas)
        for scheme in schemes:
            result = solve(scenario.topology, scenario.tasks, rates, scheme, config)
            truth = oracle_mod.enumerate_optimal(scenario.topology, scenario.tasks, rates, scheme, cap=cap)
            gap = (result.total_delay_s - truth.total_delay_s) / truth.total_delay_s
            rows.append(
                {
                    "scheme": scheme.cli_name,
                    "realization": r,
                    "seed": seed,
                    "solver_total_s": result.total_delay_s,
                    "oracle_total_s": truth.total_delay_s,
                    "rel_gap": gap,
                }
            )
    summaries = []
    for scheme in schemes:
        gaps = [row["rel_gap"] for row in rows if row["scheme"] == scheme.cli_name]
        summaries.append(
            {
                "scheme": scheme.cli_name,
                "median_gap": _percentile(gaps, 50),
                "p95_gap": _percentile(gaps, 95),
                "max_gap": _percentile(gaps, 100),
                "realizations": realizations,
            }
        )
    return summaries, rows


def _percentile(values: list[float], q: float) -> float:
    """The q-th percentile by numpy's default linear rule, written out so a
    summary of a few numbers does not import numpy's percentile (which loads
    `numpy.ma`): interpolate between the sorted values around position
    (n - 1) q / 100.  NaN if any value is NaN."""
    ordered = sorted(values)
    if any(math.isnan(v) for v in ordered):
        return math.nan
    position = (len(ordered) - 1) * (q / 100)
    lo = min(math.floor(position), len(ordered) - 1)
    a, b = ordered[lo], ordered[min(lo + 1, len(ordered) - 1)]
    t = position - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def single_report(scenario: Scenario, rates, scheme: Scheme, result: SolveResult) -> str:
    """Human-readable plan: per-task path, shares and delay legs, then totals."""
    topo, tasks = scenario.topology, scenario.tasks
    lines = [
        f"scheme={scheme.cli_name} users={topo.num_users} rus={topo.num_rus} dus={topo.num_dus}",
        "task ru du tier rate_mbps speed_ghz fronthaul_mhz midhaul_mhz access_s fronthaul_s midhaul_s compute_s total_s",
    ]
    alloc = result.allocation
    for k, tier in enumerate(result.decision.tiers):
        ru = int(topo.user_to_ru[k])
        du = int(topo.ru_to_du[ru])
        breakdown = task_delay(topo, tasks, k, tier, alloc, rates[k])
        speed = alloc.mecl_speed.get(k) or alloc.mech_speed.get(k) or alloc.cloud_speed.get(k)
        lines.append(
            f"{k} {ru} {du} {tier} "
            f"{rates[k] / 1e6:.6g} {speed / 1e9:.6g} "
            f"{alloc.fronthaul_bw.get(k, 0.0) / 1e6:.6g} {alloc.midhaul_bw.get(k, 0.0) / 1e6:.6g} "
            f"{breakdown.access_s:.6g} {breakdown.fronthaul_s:.6g} {breakdown.midhaul_s:.6g} "
            f"{breakdown.compute_s:.6g} {breakdown.total_s:.6g}"
        )
    lines.append(
        f"total_delay_s={result.total_delay_s:.9g} tasks={topo.num_users} "
        f"iterations={result.iterations} converged={result.converged} "
        f"duality_gap={result.duality_gap:.3g}"
    )
    lines.append(
        "duals: mu=[" + " ".join(f"{v:.6g}" for v in result.duals.mu) + "]"
        + " lam=[" + " ".join(f"{v:.6g}" for v in result.duals.lam) + "]"
        + f" rho={result.duals.rho:.6g}"
        + " nu=[" + " ".join(f"{v:.6g}" for v in result.duals.nu) + "]"
        + " xi=[" + " ".join(f"{v:.6g}" for v in result.duals.xi) + "]"
    )
    return "\n".join(lines) + "\n"


def _parse_sweep_flag(text: str) -> tuple[str, float, float, int]:
    try:
        name, _, rng = text.partition("=")
        start, stop, steps = rng.split(":")
        return name.strip(), float(start), float(stop), int(steps)
    except ValueError as exc:
        raise ValueError(f"--sweep expects NAME=START:STOP:STEPS, got {text!r}") from exc


def _parse_set_flag(entries: list[str]) -> dict:
    fields = {
        **{key: name for key, name in SWEEP_PARAMETERS.items() if key != "k"},
        "fc": "cloud_capacity_hz",
        "uplink": "uplink_bandwidth_hz",
        "rl": "fronthaul_se",
        "rh": "midhaul_se",
        "spacing": "ru_spacing_m",
    }
    overrides = {}
    for entry in entries:
        key, _, value = entry.partition("=")
        key = key.strip().lower()
        if key not in fields:
            raise ValueError(f"--set expects one of {sorted(fields)}, got {key!r}")
        parts = [float(tok) for tok in value.split(",")]
        # fc and spacing set one number for the whole network: no per-node range.
        if len(parts) > 1 and key in ("fc", "spacing"):
            raise ValueError(f"--set {key} expects one VALUE, not a LO,HI range: {fields[key]} is one number, got {value!r}")
        if len(parts) > 2:
            raise ValueError(f"--set {key} expects VALUE or LO,HI, got {value!r}")
        overrides[fields[key]] = parts[0] if len(parts) == 1 else (parts[0], parts[1])
    return overrides


def _schemes_from_flag(flag: str) -> tuple[Scheme, ...]:
    if flag == "all":
        return (Scheme.FOG, Scheme.CLOUD_RU, Scheme.CLOUD_DU, Scheme.CLOUD)
    return (Scheme.from_name(flag),)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogplan",
        description="Plan computational task offloading in a three-tier fog C-RAN and "
        "reproduce delay-vs-capacity sweeps.",
    )
    parser.add_argument("--scenario", help="load a scenario file instead of generating one (single-scenario mode only)")
    parser.add_argument("--seed", type=int, default=0, help="base seed (scenario generation / sweeps)")
    parser.add_argument("--users", type=int, help="number of users K (required when generating)")
    parser.add_argument("--dus", type=int, default=4, help="number of DUs")
    parser.add_argument("--rus", type=int, default=10, help="number of RUs")
    parser.add_argument("--antennas", type=int, default=DEFAULT_NUM_ANTENNAS, help="receive antennas per RU")
    parser.add_argument(
        "--scheme",
        default="all",
        choices=[scheme.cli_name for scheme in Scheme] + ["all"],
        help="which tier restriction(s) to plan under",
    )
    parser.add_argument("--sweep", help="sweep one parameter: fl|fh|bl|bh|k=START:STOP:STEPS")
    parser.add_argument("--realizations", type=int, default=1, help="random realizations per sweep point")
    parser.add_argument("--out", help="CSV output path (default: stdout)")
    parser.add_argument("--oracle-check", action="store_true", help="compare the solver against exhaustive search")
    parser.add_argument("--oracle-cap", type=int, default=oracle_mod.DEFAULT_ENUMERATION_CAP, help="enumeration cap")
    defaults = SolverConfig()
    parser.add_argument("--epsilon", type=float, default=defaults.epsilon, help="solver convergence threshold")
    parser.add_argument("--max-iters", type=int, default=defaults.max_iters, help="solver iteration cap")
    parser.add_argument("--workers", type=int, default=1,
                        help="parallel worker processes for sweeps, each planning a contiguous share of the "
                        "realizations at every sweep point (with fewer realizations than workers, of one "
                        "realization's sweep points)")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a scenario parameter (fl, fh, bl, bh, fc, uplink, rl, rh, spacing); "
                        "VALUE may be 'lo,hi' for a per-node uniform draw, except for the network-wide fc and "
                        "spacing")
    parser.add_argument("--save-scenario", help="write the planned scenario to this path (single-scenario mode only)")
    return parser


def _base_spec(args) -> ScenarioSpec:
    if args.users is None:
        raise ValueError("--users is required when generating scenarios")
    overrides = _parse_set_flag(args.set)
    return ScenarioSpec(
        num_users=args.users,
        num_dus=args.dus,
        num_rus=args.rus,
        seed=args.seed,
        **overrides,
    )


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads its arguments with, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    schemes = _schemes_from_flag(args.scheme)

    try:
        config = SolverConfig(epsilon=args.epsilon, max_iters=args.max_iters)
        mode = "--sweep" if args.sweep else "--oracle-check" if args.oracle_check else None
        files = [flag for flag, path in (("--scenario", args.scenario), ("--save-scenario", args.save_scenario)) if path]
        if mode and files:
            raise ValueError(f"{' and '.join(files)} cannot be combined with {mode}, which generates its scenarios")
        if args.sweep:
            name, start, stop, steps = _parse_sweep_flag(args.sweep)
            sweep = SweepSpec(
                parameter=name,
                start=start,
                stop=stop,
                steps=steps,
                realizations=args.realizations,
                base_seed=args.seed,
            )
            rows = run_sweep(sweep, schemes, _base_spec(args), config, args.antennas, args.workers)
            _emit(format_csv(rows, SWEEP_CSV_COLUMNS), args.out)
            return 0

        if args.oracle_check:
            summaries, rows = compare_oracle(
                _base_spec(args), schemes, args.realizations, config, args.antennas, args.oracle_cap
            )
            for s in summaries:
                sys.stdout.write(
                    f"scheme={s['scheme']} realizations={s['realizations']} "
                    f"median_gap={s['median_gap']:.3e} p95_gap={s['p95_gap']:.3e} "
                    f"max_gap={s['max_gap']:.3e}\n"
                )
            if args.out:
                _emit(format_csv(rows, ORACLE_CSV_COLUMNS), args.out)
            return 0

        if args.scenario:
            scenario = load_scenario(args.scenario)
        else:
            scenario = generate_scenario(_base_spec(args))
        if args.save_scenario:
            save_scenario(args.save_scenario, scenario)
        rates = _rates(scenario, args.seed, args.antennas)
        reports = []
        for scheme in schemes:
            result = solve(scenario.topology, scenario.tasks, rates, scheme, config)
            reports.append(single_report(scenario, rates, scheme, result))
        _emit("".join(reports), args.out)
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # e.g. a scenario whose arrays do not fit in memory
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
