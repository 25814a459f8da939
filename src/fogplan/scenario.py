"""Network scenarios: the CU/DU/RU tree, per-user tasks, generation, persistence.

A scenario is the immutable ground truth every other module consumes: counts
and parent maps of the three-tier topology, per-node compute capacities,
per-link bandwidth capacities and spectrum efficiencies, one computation task
per user, and the geometry the channel generator needs.  All quantities are
SI (Hz, bits, cycles/s, meters) stored as float64; no unit conversion happens
anywhere in the math core.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

# Offloading tiers: MEC at the radio unit, MEC at the distributed unit, cloud.
TIER_L = "L"
TIER_H = "H"
TIER_C = "C"
TIERS = (TIER_L, TIER_H, TIER_C)


class Scheme(enum.Enum):
    """Which tiers a deployment offers (baselines restrict the full set)."""

    FOG = (TIER_L, TIER_H, TIER_C)
    CLOUD = (TIER_C,)
    CLOUD_DU = (TIER_H, TIER_C)
    CLOUD_RU = (TIER_L, TIER_C)

    @property
    def allowed_tiers(self) -> tuple[str, ...]:
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        key = name.strip().lower().replace("_", "-")
        table = {scheme.cli_name: scheme for scheme in cls}
        if key not in table:
            *first, last = table
            raise ValueError(f"unknown scheme '{name}' (expected {', '.join(first)} or {last})")
        return table[key]

    @property
    def cli_name(self) -> str:
        return self.name.lower().replace("_", "-")


def _int_array(name: str, values, length: int) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size != length:
        raise ValueError(f"{name} must be a flat array of length {length}, got shape {arr.shape}")
    if arr.size and arr.dtype.kind not in "iu" and not np.equal(np.mod(arr, 1), 0).all():
        raise ValueError(f"{name} must contain integers")
    return arr.astype(np.int64)


def _positive_array(name: str, values, length: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size != length:
        raise ValueError(f"{name} must be a flat array of length {length}, got shape {arr.shape}")
    # The least entry is positive only if every entry is (a NaN entry makes
    # the least NaN); then the greatest is finite only if every entry is.
    if arr.size and not np.minimum.reduce(arr) > 0:
        bad = int(np.flatnonzero(~(arr > 0))[0])
        raise ValueError(f"{name}[{bad}] = {arr[bad]} must be strictly positive")
    if arr.size and not np.maximum.reduce(arr) < math.inf:
        raise ValueError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class Topology:
    """Three-tier network: `num_rus` radio units hang off `num_dus` distributed
    units, each user attaches to one RU.  Capacities are per node/link."""

    num_dus: int
    num_rus: int
    num_users: int
    ru_to_du: np.ndarray
    user_to_ru: np.ndarray
    uplink_bandwidth_hz: np.ndarray
    fronthaul_capacity_hz: np.ndarray
    midhaul_capacity_hz: np.ndarray
    fronthaul_se: np.ndarray
    midhaul_se: np.ndarray
    mecl_capacity_hz: np.ndarray
    mech_capacity_hz: np.ndarray
    cloud_capacity_hz: float

    def __post_init__(self):
        for name in ("num_dus", "num_rus"):
            if int(getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be strictly positive")
        if int(self.num_users) < 0:
            raise ValueError("num_users must be non-negative")
        object.__setattr__(self, "num_dus", int(self.num_dus))
        object.__setattr__(self, "num_rus", int(self.num_rus))
        object.__setattr__(self, "num_users", int(self.num_users))

        ru_to_du = _int_array("ru_to_du", self.ru_to_du, self.num_rus)
        if np.minimum.reduce(ru_to_du) < 0 or np.maximum.reduce(ru_to_du) >= self.num_dus:
            bad = int(np.flatnonzero((ru_to_du < 0) | (ru_to_du >= self.num_dus))[0])
            raise ValueError(
                f"ru_to_du[{bad}] = {ru_to_du[bad]} is out of range for num_dus = {self.num_dus}"
            )
        user_to_ru = _int_array("user_to_ru", self.user_to_ru, self.num_users)
        if self.num_users and (np.minimum.reduce(user_to_ru) < 0 or np.maximum.reduce(user_to_ru) >= self.num_rus):
            bad = int(np.flatnonzero((user_to_ru < 0) | (user_to_ru >= self.num_rus))[0])
            raise ValueError(
                f"user_to_ru[{bad}] = {user_to_ru[bad]} is out of range for num_rus = {self.num_rus}"
            )
        object.__setattr__(self, "ru_to_du", ru_to_du)
        object.__setattr__(self, "user_to_ru", user_to_ru)

        per_ru = ("uplink_bandwidth_hz", "fronthaul_capacity_hz", "fronthaul_se", "mecl_capacity_hz")
        per_du = ("midhaul_capacity_hz", "midhaul_se", "mech_capacity_hz")
        for name in per_ru:
            object.__setattr__(self, name, _positive_array(name, getattr(self, name), self.num_rus))
        for name in per_du:
            object.__setattr__(self, name, _positive_array(name, getattr(self, name), self.num_dus))
        cloud = float(self.cloud_capacity_hz)
        if not (cloud > 0 and math.isfinite(cloud)):
            raise ValueError(f"cloud_capacity_hz = {cloud} must be strictly positive and finite")
        object.__setattr__(self, "cloud_capacity_hz", cloud)

    @property
    def user_du(self) -> np.ndarray:
        """DU index serving each user (through its RU)."""
        return self.ru_to_du[self.user_to_ru]


def _with_capacity(topology: Topology, name: str, values) -> Topology:
    """The topology with the per-node capacity field `name` set to `values`,
    equal to `dataclasses.replace(topology, name=values)` field for field:
    the other fields are already valid, so only the new one is checked."""
    copy = object.__new__(Topology)
    copy.__dict__.update(topology.__dict__)
    object.__setattr__(copy, name, _positive_array(name, values, getattr(topology, name).size))
    return copy


@dataclass(frozen=True)
class TaskSet:
    """One computation task per user: payload size and compute density."""

    data_bits: np.ndarray
    cycles_per_bit: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.data_bits, dtype=np.float64)
        density = np.asarray(self.cycles_per_bit, dtype=np.float64)
        if bits.shape != density.shape or bits.ndim != 1:
            raise ValueError("data_bits and cycles_per_bit must be flat arrays of equal length")
        object.__setattr__(self, "data_bits", _positive_array("data_bits", bits, bits.size))
        object.__setattr__(
            self, "cycles_per_bit", _positive_array("cycles_per_bit", density, density.size)
        )

    @property
    def num_tasks(self) -> int:
        return int(self.data_bits.size)

    @property
    def compute_cycles(self) -> np.ndarray:
        """Total CPU cycles each task needs."""
        return self.data_bits * self.cycles_per_bit


@dataclass(frozen=True)
class Scenario:
    """Topology + tasks + the geometry channel generation is defined over."""

    topology: Topology
    tasks: TaskSet
    ru_positions_m: np.ndarray
    user_positions_m: np.ndarray

    def __post_init__(self):
        ru_pos = np.asarray(self.ru_positions_m, dtype=np.float64)
        user_pos = np.asarray(self.user_positions_m, dtype=np.float64)
        if ru_pos.shape != (self.topology.num_rus, 2):
            raise ValueError(
                f"ru_positions_m must have shape ({self.topology.num_rus}, 2), got {ru_pos.shape}"
            )
        if user_pos.shape != (self.topology.num_users, 2):
            raise ValueError(
                f"user_positions_m must have shape ({self.topology.num_users}, 2), got {user_pos.shape}"
            )
        if self.tasks.num_tasks != self.topology.num_users:
            raise ValueError("tasks and topology disagree on the number of users")
        object.__setattr__(self, "ru_positions_m", ru_pos)
        object.__setattr__(self, "user_positions_m", user_pos)


@dataclass(frozen=True)
class ScenarioSpec:
    """Distribution parameters + seed for scenario generation.

    Per-RU/DU quantities accept either a scalar (applied uniformly) or a
    (low, high) pair drawn uniformly per node.
    """

    num_users: int
    num_dus: int = 4
    num_rus: int = 10
    seed: int = 0
    data_bits_range: tuple[float, float] = (5e6, 30e6)
    cycles_per_bit_range: tuple[float, float] = (0.1, 10.0)
    uplink_bandwidth_hz: float | tuple[float, float] = 10e6
    fronthaul_capacity_hz: float | tuple[float, float] = 300e6
    midhaul_capacity_hz: float | tuple[float, float] = 500e6
    fronthaul_se: float | tuple[float, float] = 3.0
    midhaul_se: float | tuple[float, float] = 3.0
    mecl_capacity_hz: float | tuple[float, float] = 2e9
    mech_capacity_hz: float | tuple[float, float] = 25e9
    cloud_capacity_hz: float = 5e12
    ru_spacing_m: float = 500.0


def _draw(rng: np.random.Generator, name: str, value, n: int) -> np.ndarray:
    if isinstance(value, (tuple, list)):
        if len(value) != 2:
            raise ValueError(f"{name} range must be a (low, high) pair")
        lo, hi = float(value[0]), float(value[1])
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} range must be finite: ({lo}, {hi})")
        if lo > hi:
            raise ValueError(f"{name} range is inverted: ({lo}, {hi})")
        return rng.uniform(lo, hi, size=n)
    return np.full(n, float(value))


def generate_scenario(spec: ScenarioSpec) -> Scenario:
    """Draw a scenario: RUs on a grid, users uniform in a disc around a random
    RU then attached to their nearest RU, tasks uniform in the configured
    ranges.  Identical spec (including seed) reproduces the scenario bit for
    bit; the draw order below is a compatibility contract.
    """
    if spec.num_users <= 0 or spec.num_rus <= 0 or spec.num_dus <= 0:
        raise ValueError("num_users, num_rus and num_dus must all be strictly positive")
    if spec.seed < 0:
        raise ValueError(f"seed must be non-negative, got {spec.seed}")
    for name in ("data_bits_range", "cycles_per_bit_range"):
        lo, hi = getattr(spec, name)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"{name} must be finite: ({lo}, {hi})")
        if lo > hi:
            raise ValueError(f"{name} is inverted: ({lo}, {hi})")
        if lo <= 0:
            raise ValueError(f"{name} lower bound must be strictly positive")
    if not math.isfinite(spec.ru_spacing_m):
        raise ValueError(f"ru_spacing_m must be finite, got {spec.ru_spacing_m}")
    if spec.ru_spacing_m <= 0:
        raise ValueError("ru_spacing_m must be strictly positive")
    # Every user lies within `cols` spacings of every RU along each axis, so
    # 2 (cols spacing)^2 bounds the squared user-RU distances.
    cols = math.ceil(math.sqrt(spec.num_rus))
    extent = cols * spec.ru_spacing_m
    if not math.isfinite(2.0 * extent * extent):
        raise ValueError(f"ru_spacing_m = {spec.ru_spacing_m:g} is too large: the user-RU distances overflow")

    rng = np.random.default_rng(spec.seed)
    n_ru, n_du, n_user = spec.num_rus, spec.num_dus, spec.num_users

    idx = np.arange(n_ru)
    ru_pos = np.stack((idx % cols, idx // cols), axis=1).astype(np.float64) * spec.ru_spacing_m
    ru_to_du = (idx * n_du) // n_ru

    home_ru = rng.integers(0, n_ru, size=n_user)
    radius = spec.ru_spacing_m / 2.0
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n_user))
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n_user)
    user_pos = ru_pos[home_ru] + np.stack((r * np.cos(theta), r * np.sin(theta)), axis=1)
    offsets = user_pos[:, None, :] - ru_pos[None, :, :]
    dists = np.sqrt(np.add.reduce(offsets * offsets, axis=2))  # np.linalg.norm's sum for real offsets
    user_to_ru = np.argmin(dists, axis=1)

    uplink = _draw(rng, "uplink_bandwidth_hz", spec.uplink_bandwidth_hz, n_ru)
    fronthaul = _draw(rng, "fronthaul_capacity_hz", spec.fronthaul_capacity_hz, n_ru)
    fronthaul_se = _draw(rng, "fronthaul_se", spec.fronthaul_se, n_ru)
    mecl = _draw(rng, "mecl_capacity_hz", spec.mecl_capacity_hz, n_ru)
    midhaul = _draw(rng, "midhaul_capacity_hz", spec.midhaul_capacity_hz, n_du)
    midhaul_se = _draw(rng, "midhaul_se", spec.midhaul_se, n_du)
    mech = _draw(rng, "mech_capacity_hz", spec.mech_capacity_hz, n_du)

    data_bits = rng.uniform(*spec.data_bits_range, size=n_user)
    cycles_per_bit = rng.uniform(*spec.cycles_per_bit_range, size=n_user)

    topology = Topology(
        num_dus=n_du,
        num_rus=n_ru,
        num_users=n_user,
        ru_to_du=ru_to_du,
        user_to_ru=user_to_ru,
        uplink_bandwidth_hz=uplink,
        fronthaul_capacity_hz=fronthaul,
        midhaul_capacity_hz=midhaul,
        fronthaul_se=fronthaul_se,
        midhaul_se=midhaul_se,
        mecl_capacity_hz=mecl,
        mech_capacity_hz=mech,
        cloud_capacity_hz=float(spec.cloud_capacity_hz),
    )
    tasks = TaskSet(data_bits=data_bits, cycles_per_bit=cycles_per_bit)
    return Scenario(topology=topology, tasks=tasks, ru_positions_m=ru_pos, user_positions_m=user_pos)


# ---------------------------------------------------------------------------
# Persistence: flat `key = value` text, one key per line, units in key names.
# Floats use shortest round-trip repr so load(save(x)) is bit-exact.

_SCALAR_INT_KEYS = ("num_dus", "num_rus", "num_users")
_INT_ARRAY_KEYS = ("ru_to_du", "user_to_ru")
_FLOAT_ARRAY_KEYS = (
    "uplink_bandwidth_hz",
    "fronthaul_capacity_hz",
    "midhaul_capacity_hz",
    "fronthaul_se",
    "midhaul_se",
    "mecl_capacity_hz",
    "mech_capacity_hz",
    "data_bits",
    "cycles_per_bit",
    "ru_positions_m",
    "user_positions_m",
)
_SCALAR_FLOAT_KEYS = ("cloud_capacity_hz",)
SCENARIO_KEYS = _SCALAR_INT_KEYS + _INT_ARRAY_KEYS + _SCALAR_FLOAT_KEYS + _FLOAT_ARRAY_KEYS


def save_scenario(path, scenario: Scenario) -> None:
    """Write a scenario as flat `key = value` text (see SCENARIO_KEYS)."""
    topo, tasks = scenario.topology, scenario.tasks
    lines = ["# fog C-RAN scenario, flat key = value format"]

    def put(key, text):
        lines.append(f"{key} = {text}")

    put("num_dus", str(topo.num_dus))
    put("num_rus", str(topo.num_rus))
    put("num_users", str(topo.num_users))
    put("ru_to_du", " ".join(str(int(v)) for v in topo.ru_to_du))
    put("user_to_ru", " ".join(str(int(v)) for v in topo.user_to_ru))
    put("cloud_capacity_hz", repr(float(topo.cloud_capacity_hz)))
    for key in _FLOAT_ARRAY_KEYS:
        if key == "data_bits":
            arr = tasks.data_bits
        elif key == "cycles_per_bit":
            arr = tasks.cycles_per_bit
        elif key == "ru_positions_m":
            arr = scenario.ru_positions_m.reshape(-1)
        elif key == "user_positions_m":
            arr = scenario.user_positions_m.reshape(-1)
        else:
            arr = getattr(topo, key)
        put(key, " ".join(repr(float(v)) for v in arr))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_scenario(path) -> Scenario:
    """Parse a scenario file; malformed or missing keys raise ValueError
    naming the offending key."""
    raw: dict[str, str] = {}
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"scenario file line {lineno} is not 'key = value': {stripped!r}")
            key, _, value = stripped.partition("=")
            key = key.strip()
            if key not in SCENARIO_KEYS:
                raise ValueError(f"scenario file has unexpected key '{key}'")
            if key in raw:
                raise ValueError(f"scenario file repeats key '{key}'")
            raw[key] = value.strip()
    for key in SCENARIO_KEYS:
        if key not in raw:
            raise ValueError(f"scenario file is missing required key '{key}'")

    def ints(key):
        try:
            return [int(tok) for tok in raw[key].split()]
        except ValueError as exc:
            raise ValueError(f"scenario key '{key}' holds a non-integer value") from exc

    def floats(key):
        try:
            return np.array([float(tok) for tok in raw[key].split()], dtype=np.float64)
        except ValueError as exc:
            raise ValueError(f"scenario key '{key}' holds a non-numeric value") from exc

    def scalar(values, key):
        if len(values) != 1:
            raise ValueError(f"scenario key '{key}' must hold exactly one value")
        return values[0]

    n_du, n_ru, n_user = (scalar(ints(k), k) for k in _SCALAR_INT_KEYS)

    def sized(key, expected):
        arr = floats(key)
        if arr.size != expected:
            raise ValueError(f"scenario key '{key}' has {arr.size} values, expected {expected}")
        return arr

    topology = Topology(
        num_dus=n_du,
        num_rus=n_ru,
        num_users=n_user,
        ru_to_du=ints("ru_to_du"),
        user_to_ru=ints("user_to_ru"),
        uplink_bandwidth_hz=sized("uplink_bandwidth_hz", n_ru),
        fronthaul_capacity_hz=sized("fronthaul_capacity_hz", n_ru),
        midhaul_capacity_hz=sized("midhaul_capacity_hz", n_du),
        fronthaul_se=sized("fronthaul_se", n_ru),
        midhaul_se=sized("midhaul_se", n_du),
        mecl_capacity_hz=sized("mecl_capacity_hz", n_ru),
        mech_capacity_hz=sized("mech_capacity_hz", n_du),
        cloud_capacity_hz=scalar(list(floats("cloud_capacity_hz")), "cloud_capacity_hz"),
    )
    tasks = TaskSet(data_bits=sized("data_bits", n_user), cycles_per_bit=sized("cycles_per_bit", n_user))
    return Scenario(
        topology=topology,
        tasks=tasks,
        ru_positions_m=sized("ru_positions_m", 2 * n_ru).reshape(n_ru, 2),
        user_positions_m=sized("user_positions_m", 2 * n_user).reshape(n_user, 2),
    )
