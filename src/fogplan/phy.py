"""Uplink physical layer: channels, MMSE receive beamforming, SINR, rates.

Channels are Rayleigh-faded complex vectors with log-distance path loss
(pluggable behind `generate_channels`).  Spectrum is orthogonal between
adjacent RUs, so interference is intra-RU only and every computation here
involves a single RU's users at a time.  `uplink_rates` batches the RUs of
one cell size (users served): their MMSE combiners are one stacked solve
and their SINRs one stacked product, each RU's numbers those it gets alone.
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


def mmse_beamformer(channels: ChannelSet, ru: int) -> Beamformer:
    """Minimum-MSE receive vectors for every user of one RU:
    u_k = (sigma^2 I + p_t sum_l h_l h_l^H)^{-1} h_k over that RU's users.

    The received-signal covariance carries the transmit power; without it the
    solve maximizes SINR only for unit transmit power.
    """
    users = channels.users_of_ru(ru)
    if users.size == 0:
        raise ValueError(f"RU {ru} serves no users")
    H = channels.h[users]
    m = channels.num_antennas
    cov = channels.noise_at(ru) * np.eye(m, dtype=np.complex128) + channels.tx_power_w * (H.T @ H.conj())
    u = np.linalg.solve(cov, H.T).T
    return Beamformer(users=users, u=u)


def _sinrs(channels: ChannelSet, ru: int, u: np.ndarray, users: np.ndarray) -> np.ndarray:
    """Post-combining SINR of each receive vector of one RU: row r of `u`
    combines for user `users[r]`, which the RU must serve, against all of that
    RU's users.  The interference is the row of gains p |u^H h_l|^2 with the
    user's own column masked out, summed; the noise is ||u||^2 sigma^2.  At
    an extreme noise power or path loss these can underflow to 0, which makes
    the SINR NaN or inf; both callers refuse that."""
    cell = channels.users_of_ru(ru)
    gain = channels.tx_power_w * np.abs(u.conj() @ channels.h[cell].T) ** 2
    own = cell[None, :] == users[:, None]
    interference = np.where(own, 0.0, gain).sum(axis=1)
    noise = (u.real**2 + u.imag**2).sum(axis=1) * channels.noise_at(ru)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return gain[own] / (interference + noise)


def sinr(channels: ChannelSet, beamformer: Beamformer, user: int) -> float:
    """Post-combining SINR of one user against its RU's co-scheduled users."""
    u = beamformer.vector_for(user)
    if not np.any(u):
        raise ValueError(f"beamformer for user {user} is zero")
    value = float(_sinrs(channels, int(channels.user_to_ru[user]), u[None, :], np.array([user]))[0])
    if not math.isfinite(value):
        raise ValueError(f"SINR of user {user} is {value} (the signal and noise powers underflow or overflow)")
    return value


def uplink_rate(bandwidth_hz: float, sinr_value: float) -> float:
    """Achievable uplink rate in bits/s."""
    if sinr_value < 0:
        raise ValueError("SINR must be non-negative")
    return float(bandwidth_hz * np.log2(1.0 + sinr_value))


def access_delay(data_bits: float, rate_bps: float) -> float:
    """Radio transmission time; a zero rate marks the user infeasible (inf)."""
    if data_bits == 0:
        return 0.0
    if rate_bps <= 0:
        return math.inf
    return float(data_bits) / float(rate_bps)


def _cell_sinrs(channels: ChannelSet, rus: np.ndarray, users: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Combiners (G, n, M) and SINRs (G, n) of the users (G, n) of G RUs
    that serve n users each, row g holding RU `rus[g]`'s users in index
    order.  The combiners are one stacked solve and the gains one stacked
    product, so each RU's entries are those `mmse_beamformer` and `_sinrs`
    give it alone.  Raises `LinAlgError` if any RU's covariance is
    singular."""
    h = channels.h[users]
    columns = h.transpose(0, 2, 1)
    noise = channels.noise_power_w[rus] if channels.noise_power_w.size > 1 else channels.noise_power_w.repeat(rus.size)
    cov = noise[:, None, None] * np.eye(channels.num_antennas, dtype=np.complex128) + channels.tx_power_w * (
        columns @ h.conj())
    u = np.linalg.solve(cov, columns).transpose(0, 2, 1)
    gain = channels.tx_power_w * np.abs(u.conj() @ columns) ** 2
    own = np.eye(users.shape[1], dtype=bool)
    interference = np.where(own, 0.0, gain).sum(axis=2)
    power = (u.real**2 + u.imag**2).sum(axis=2) * noise[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return u, gain[:, own] / (interference + power)


def _sinr_error(ru: int, band: float) -> ValueError:
    return ValueError(f"RU {ru}: the SINR at uplink bandwidth {band:g} Hz is not finite (the signal and noise powers "
                      "underflow or overflow)")


def _first_failure(topology: Topology, channels: ChannelSet, rus) -> tuple[int, ValueError]:
    """The first of the RUs whose combiners cannot be solved or are not
    finite, or whose SINRs are not finite, and its error, taking the RUs
    one by one (`mmse_beamformer`, `_sinrs`)."""
    for ru in rus:
        try:
            bf = mmse_beamformer(channels, ru)
            if not np.isfinite(_sinrs(channels, ru, bf.u, bf.users)).all():
                raise _sinr_error(ru, topology.uplink_bandwidth_hz[ru])
        except ValueError as exc:
            return ru, exc
    raise AssertionError("no RU failed")


def uplink_rates(topology: Topology, channels: ChannelSet) -> np.ndarray:
    """Per-user achievable rate under MMSE combining, in user index order.
    The RUs that serve the same number of users are combined together
    (`_cell_sinrs`).  Of several RUs that fail, the lowest is reported,
    with the error it gives alone."""
    if not np.array_equal(topology.user_to_ru, channels.user_to_ru):
        raise ValueError("topology and channels disagree on user-to-RU assignment")
    sinrs = np.zeros(channels.num_users)
    served = np.bincount(channels.user_to_ru)
    order = np.argsort(channels.user_to_ru, kind="stable")  # RU by RU, each RU's users in index order
    offset = np.cumsum(served) - served
    failures = []
    for n in sorted(set(served.tolist()) - {0}):
        rus = np.flatnonzero(served == n)
        users = order[offset[rus, None] + np.arange(n)]
        try:
            u, cell = _cell_sinrs(channels, rus, users)
        except np.linalg.LinAlgError:  # numpy does not say which RU's covariance is singular
            failures.append(_first_failure(topology, channels, rus.tolist()))
            continue
        if not (np.isfinite(cell).all() and np.isfinite(u).all()):
            finite = np.isfinite(cell).all(axis=1) & np.isfinite(u).all(axis=(1, 2))
            failures.append(_first_failure(topology, channels, rus[~finite].tolist()))
        sinrs[users] = cell
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return topology.uplink_bandwidth_hz[channels.user_to_ru] * np.log2(1.0 + sinrs)
