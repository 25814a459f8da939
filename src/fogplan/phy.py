"""Uplink physical layer: channels, MMSE receive beamforming, SINR, rates.

Channels are Rayleigh-faded complex vectors with log-distance path loss
(pluggable behind `generate_channels`).  Spectrum is orthogonal between
adjacent RUs, so interference is intra-RU only and every computation here
involves a single RU's users at a time.  One MMSE combiner kernel and one
SINR kernel work on stacks of RUs: `uplink_rates` stacks the RUs of one
cell size (users served), so their combiners are one stacked solve and
their SINRs one stacked product, each RU's numbers those it gets alone;
the public per-RU `mmse_beamformer` and the one-vector `sinr` are the
kernels on a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scenario import Topology

DEFAULT_NUM_ANTENNAS = 10
DEFAULT_TX_POWER_DBM = 35.0
DEFAULT_NOISE_DENSITY_DBM_PER_HZ = -174.0
DEFAULT_PATH_LOSS_EXPONENT = 4.0


def dbm_to_watt(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class ChannelSet:
    """Per-user uplink channel to the serving RU.

    `h[k]` is the length-M complex channel of user k to RU `user_to_ru[k]`;
    `noise_power_w[i]` is the receiver noise power at RU i (density x band).
    """

    h: np.ndarray
    user_to_ru: np.ndarray
    tx_power_w: float
    noise_power_w: np.ndarray
    num_antennas: int

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.complex128)
        if h.ndim != 2 or h.shape[1] != self.num_antennas:
            raise ValueError(f"h must have shape (num_users, {self.num_antennas}), got {h.shape}")
        user_to_ru = np.asarray(self.user_to_ru, dtype=np.int64)
        if user_to_ru.shape != (h.shape[0],):
            raise ValueError("user_to_ru must have one entry per channel row")
        noise = np.atleast_1d(np.asarray(self.noise_power_w, dtype=np.float64))
        if np.any(noise <= 0):
            raise ValueError("noise_power_w must be strictly positive")
        if not self.tx_power_w > 0:
            raise ValueError("tx_power_w must be strictly positive")
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "user_to_ru", user_to_ru)
        object.__setattr__(self, "noise_power_w", noise)

    @property
    def num_users(self) -> int:
        return int(self.h.shape[0])

    def users_of_ru(self, ru: int) -> np.ndarray:
        return np.flatnonzero(self.user_to_ru == ru)

    def noise_at(self, ru: int) -> float:
        if self.noise_power_w.size == 1:
            return float(self.noise_power_w[0])
        return float(self.noise_power_w[ru])


@dataclass(frozen=True)
class Beamformer:
    """Receive vectors for a set of users; row r of `u` belongs to `users[r]`."""

    users: np.ndarray
    u: np.ndarray

    def __post_init__(self):
        users = np.asarray(self.users, dtype=np.int64)
        u = np.asarray(self.u, dtype=np.complex128)
        if u.ndim != 2 or u.shape[0] != users.size:
            raise ValueError("u must have one row per user index")
        if not np.all(np.isfinite(u)):
            raise ValueError("beamformer entries must be finite")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "u", u)

    def vector_for(self, user: int) -> np.ndarray:
        rows = np.flatnonzero(self.users == user)
        if rows.size == 0:
            raise ValueError(f"beamformer does not cover user {user}")
        return self.u[int(rows[0])]


def path_loss(distance_m):
    """Log-distance power attenuation with exponent 4, 0 dB at the 1 m
    reference distance and clamped to 0 dB below it."""
    d = np.maximum(np.asarray(distance_m, dtype=np.float64), 1.0)
    return d ** (-DEFAULT_PATH_LOSS_EXPONENT)


def generate_channels(
    topology: Topology,
    ru_positions_m,
    user_positions_m,
    seed: int,
    num_antennas: int = DEFAULT_NUM_ANTENNAS,
) -> ChannelSet:
    """Draw each user's serving-RU channel: sqrt(path loss) times a vector of
    independent zero-mean unit-variance complex normal entries.  Deterministic
    per seed."""
    if num_antennas < 1:
        raise ValueError(f"num_antennas must be at least 1, got {num_antennas}")
    ru_pos = np.asarray(ru_positions_m, dtype=np.float64)
    user_pos = np.asarray(user_positions_m, dtype=np.float64)
    n_user = topology.num_users
    rng = np.random.default_rng(seed)

    dists = np.linalg.norm(user_pos - ru_pos[topology.user_to_ru], axis=1)
    gain = path_loss(dists)
    parts = rng.standard_normal((n_user, num_antennas, 2))
    fading = (parts[..., 0] + 1j * parts[..., 1]) / math.sqrt(2.0)
    h = np.sqrt(gain)[:, None] * fading

    noise_density_w = dbm_to_watt(DEFAULT_NOISE_DENSITY_DBM_PER_HZ)
    return ChannelSet(
        h=h,
        user_to_ru=topology.user_to_ru,
        tx_power_w=dbm_to_watt(DEFAULT_TX_POWER_DBM),
        noise_power_w=noise_density_w * topology.uplink_bandwidth_hz,
        num_antennas=num_antennas,
    )


def _noise(channels: ChannelSet, rus) -> np.ndarray:
    """The receiver noise power of each of the RUs `rus`."""
    return np.array([channels.noise_at(ru) for ru in rus])


def _combiners(channels: ChannelSet, h: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Minimum-MSE receive vectors (G, n, M) of G RUs that serve n users
    each, from the users' channels h (G, n, M) and each RU's noise power
    sigma^2 (G,): u_k = (sigma^2 I + p_t sum_l h_l h_l^H)^{-1} h_k over the
    RU's users, one stacked solve.  The received-signal covariance carries
    the transmit power; without it the solve maximizes SINR only for unit
    transmit power.  Raises `LinAlgError` if any RU's covariance is
    singular."""
    columns = h.transpose(0, 2, 1)
    cov = noise[:, None, None] * np.eye(channels.num_antennas, dtype=np.complex128) + channels.tx_power_w * (
        columns @ h.conj())
    return np.linalg.solve(cov, columns).transpose(0, 2, 1)


def _sinrs(channels: ChannelSet, u: np.ndarray, h: np.ndarray, noise: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Post-combining SINRs (G, r) of the receive vectors u (G, r, M) of G
    RUs, each against all its RU's users, whose channels are h (G, n, M);
    `own` (r, n) marks in row r the user that vector r combines for.  The
    interference is the row of gains p |u^H h_l|^2 with the own column
    masked out, summed; the noise is ||u||^2 sigma^2.  At an extreme noise
    power or path loss these can underflow to 0, which makes the SINR NaN or
    inf; both callers refuse that."""
    gain = channels.tx_power_w * np.abs(u.conj() @ h.transpose(0, 2, 1)) ** 2
    interference = np.where(own, 0.0, gain).sum(axis=2)
    power = (u.real**2 + u.imag**2).sum(axis=2) * noise[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return gain[:, own] / (interference + power)


def mmse_beamformer(channels: ChannelSet, ru: int) -> Beamformer:
    """Minimum-MSE receive vectors for every user of one RU: `_combiners`
    on a stack of that one RU."""
    users = channels.users_of_ru(ru)
    if users.size == 0:
        raise ValueError(f"RU {ru} serves no users")
    return Beamformer(users=users, u=_combiners(channels, channels.h[users][None], _noise(channels, [ru]))[0])


def sinr(channels: ChannelSet, beamformer: Beamformer, user: int) -> float:
    """Post-combining SINR of one user against its RU's co-scheduled users:
    `_sinrs` on a stack of one RU and of the user's one receive vector."""
    u = beamformer.vector_for(user)
    if not np.any(u):
        raise ValueError(f"beamformer for user {user} is zero")
    ru = int(channels.user_to_ru[user])
    cell = channels.users_of_ru(ru)
    h = channels.h[cell][None]
    value = float(_sinrs(channels, u[None, None], h, _noise(channels, [ru]), cell[None] == user)[0, 0])
    if not math.isfinite(value):
        raise ValueError(f"SINR of user {user} is {value} (the signal and noise powers underflow or overflow)")
    return value


def access_delay(data_bits: float, rate_bps: float) -> float:
    """Radio transmission time; a zero rate marks the user infeasible (inf)."""
    if data_bits == 0:
        return 0.0
    if rate_bps <= 0:
        return math.inf
    return float(data_bits) / float(rate_bps)


def _refuse_first_failure(topology: Topology, channels: ChannelSet, served: np.ndarray):
    """Raise the error of the first served RU, in index order, whose
    combiners cannot be solved or are not finite, or whose SINRs are not
    finite, taking the RUs one by one through the same kernels."""
    for ru in np.flatnonzero(served).tolist():
        bf = mmse_beamformer(channels, ru)
        own = np.eye(bf.users.size, dtype=bool)
        if not np.isfinite(_sinrs(channels, bf.u[None], channels.h[bf.users][None], _noise(channels, [ru]), own)).all():
            raise ValueError(f"RU {ru}: the SINR at uplink bandwidth {topology.uplink_bandwidth_hz[ru]:g} Hz is not "
                             "finite (the signal and noise powers underflow or overflow)")
    raise AssertionError("no RU failed")


def uplink_rates(topology: Topology, channels: ChannelSet) -> np.ndarray:
    """Per-user achievable rate B log2(1 + SINR) in bits/s under MMSE
    combining, in user index order.  The RUs that serve the same number of
    users are one stack of `_combiners` and `_sinrs`.  If a stack fails, the
    first RU that fails alone is refused, with the error it gives alone."""
    if not np.array_equal(topology.user_to_ru, channels.user_to_ru):
        raise ValueError("topology and channels disagree on user-to-RU assignment")
    sinrs = np.zeros(channels.num_users)
    served = np.bincount(channels.user_to_ru)
    order = np.argsort(channels.user_to_ru, kind="stable")  # RU by RU, each RU's users in index order
    offset = np.cumsum(served) - served
    for n in sorted(set(served.tolist()) - {0}):
        rus = np.flatnonzero(served == n)
        users = order[offset[rus, None] + np.arange(n)]
        h = channels.h[users]
        noise = _noise(channels, rus)
        try:
            u = _combiners(channels, h, noise)
            cell = _sinrs(channels, u, h, noise, np.eye(n, dtype=bool))
            failed = not (np.isfinite(cell).all() and np.isfinite(u).all())
        except np.linalg.LinAlgError:  # numpy does not say which RU's covariance is singular
            failed = True
        if failed:
            _refuse_first_failure(topology, channels, served)
        sinrs[users] = cell
    return topology.uplink_bandwidth_hz[channels.user_to_ru] * np.log2(1.0 + sinrs)
